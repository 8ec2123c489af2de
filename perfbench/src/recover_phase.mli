(** recover-campaign: a fault-injection campaign on the Domain pool.
    Eight schedules (four FTSA, four MC-FTSA; ε = 2, m = 16, v = 300),
    built in set-up, are each replayed through five scenarios: no fault,
    ε timed crashes, a lossy network with an outage, one-port contention,
    and ε+1 timed crashes under online recovery.  The campaign runs in
    rounds of 80 scenarios, their number set by [seconds] alone;
    [recover.scenarios_per_s] is the median of the per-round rates. *)

val run : Inputs.shape -> seed:int -> seconds:float -> trace:bool -> Report.t
