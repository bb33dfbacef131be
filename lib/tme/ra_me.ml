include Ra_core.Make (struct
  let name = "ra"
  let variant = Ra_core.Paper
end)
