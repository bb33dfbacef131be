(** A deliberately faulty Ricart-Agrawala: replies to requests while
    eating (see {!Ra_core}).  It exists so the bounded model checker's
    ability to find real interleaving bugs is itself tested; it is
    registered in {!Graybox.Registry} (by {!Scenarios}) as a negative
    control, so chaos sweeps and the CLI resolve it like any other
    protocol. *)

include Ra_core.Make (struct
  let name = "ra-mutant"
  let variant = Ra_core.Reply_while_eating
end)
