(** Ricart-Agrawala run under a {e synthesized} wrapper term.

    The protocol is byte-for-byte {!Ra_me}'s (the same {!Ra_core}
    program, [Paper] variant); only the registration differs: {!Scenarios}
    registers it with [role = Synthesized] and {!wrapper_term}, so the
    campaign and scenario layer compose it with
    [Harness.On {term = wrapper_term; delta}] instead of the
    hand-written [w_refined].  The harness runs both terms the same
    way, so [ra-synth+W'(δ)] reproduces [ra+W'(δ)] row for row.  The
    term below is the one the CEGIS loop
    ([Synth.synthesize] over {!Mcheck.Oracle}) finds for RA — the
    size-minimal certified candidate, which coincides with the paper's
    refined [W_j]; [test_synth] asserts that coincidence, so this
    constant cannot silently drift from what synthesis produces. *)

include Ra_core.Make (struct
  let name = "ra-synth"
  let variant = Ra_core.Paper
end)

let wrapper_term = Graybox.Wrapper.w_refined
