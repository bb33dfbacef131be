(** Ricart-Agrawala with membership-leased grants ({!Ra_core}'s
    [Leased] variant): the partition-tolerant reference, and its
    split-brain ablation, registered as the during-partition negative
    control, which never believes a heal. *)

module Lease = Ra_core.Make (struct
  let name = "ra-lease"
  let variant = Ra_core.Leased { sticky = false }
end)

module Stale = Ra_core.Make (struct
  let name = "ra-lease-stale"
  let variant = Ra_core.Leased { sticky = true }
end)
