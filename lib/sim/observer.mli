(** Streaming observation of an engine run.

    An engine's only output is its observers: each sees one {!step} per
    event while the engine runs, so verdicts are available mid-run and
    nothing needs to be retained.  A recorded {!Trace.t} is one more
    observer ([Engine.Make.recorder]), one snapshot per step, so any
    trace analysis can be restated as a fold over the step stream: the
    product's folds are [Graybox.Stabilize.Online] and
    [Graybox.Tme_spec.Epoch], which [Tme.Scenarios] feeds from one
    sink.

    [step.states] is the engine's {e live} state array: it is valid
    (and immutable) for the duration of the callback only.  An observer
    that retains states across steps must copy what it keeps. *)

type ('s, 'm) step = {
  time : int;  (** engine time of the snapshot this step mirrors *)
  event : ('s, 'm) Trace.event;
  states : 's array;  (** live array — copy before retaining *)
}

type ('s, 'm) sink = ('s, 'm) step -> unit
(** What an engine calls ({!Engine.Make.add_observer}): an imperative
    step consumer. *)
