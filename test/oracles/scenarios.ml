let tme_report (r : Tme.Scenarios.result) =
  Tme_spec.check_all ~n:r.n ~entries:r.entry_log r.vtrace
