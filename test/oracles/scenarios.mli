val tme_report : Tme.Scenarios.result -> Unityspec.Report.t
(** ME1/ME2/ME3 verdicts over a [~record:true] run's trace by
    {!Tme_spec.check_all}: the oracle the run's [epoch_spec] is held
    to. *)
