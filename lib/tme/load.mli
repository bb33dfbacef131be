(** Open-loop load generation with grant-latency percentiles.

    Where {!Scenarios} drives each process with a closed-loop client
    (think, request, eat, repeat — ideal for stabilization
    experiments), this module drives the system with an {e open-loop}
    Poisson workload: requests arrive at a configured rate regardless
    of how fast the system grants them, and each grant's latency is
    measured from the request's {e intended} arrival step.  A slow
    system therefore accumulates queued requests and the wait shows up
    in the tail percentiles, instead of silently throttling the
    workload (coordinated omission).

    Runs are seed-deterministic: the result — including every latency
    sample — is a pure function of (protocol, n, seed, rate, bounds),
    independent of wall-clock, worker count, or the engine's move-index
    implementation.  Callers time {!run} externally for steps/sec. *)

type result = {
  protocol : string;
  n : int;
  seed : int;
  rate : float;  (** arrivals per step, across the whole system *)
  steps_run : int;
      (** steps actually executed — at most [2 * max_steps]: the
          injection horizon plus a drain phase of equal length, with
          early exit as soon as every injected request was granted *)
  requests : int;  (** arrivals injected (at most [max_requests]) *)
  grants : int;
  latencies : int array;
      (** steps from intended arrival to CS entry, in grant order *)
}

val run :
  (module Graybox.Protocol.S) ->
  n:int ->
  seed:int ->
  rate:float ->
  max_requests:int ->
  max_steps:int ->
  unit ->
  result
(** [run proto ~n ~seed ~rate ~max_requests ~max_steps ()] drives an
    unwrapped, unrecorded simulation of [proto] under Poisson arrivals
    (exponential inter-arrival gaps of mean [1/rate], each request
    targeting a uniform process).  Arrivals stop at [max_steps] (or
    after [max_requests], whichever is first); the run then {e drains}
    for at most [max_steps] further steps so late arrivals' grants are
    measured rather than censored by the horizon, exiting as soon as
    every injected request has been granted.  A request still ungranted
    when the drain ends leaves [grants < requests] — for the reference
    protocols that indicates a genuine liveness problem. *)

val percentiles : result -> float list -> float list
(** [percentiles r ps] are the exact nearest-rank percentiles of the
    latency sample, e.g. [percentiles r [50.; 99.; 99.9]] — [nan]
    entries when no request was granted. *)
