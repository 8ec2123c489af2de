(** serve-open: an in-process {!Ftsched_serve.Server} on a Unix socket,
    driven by an open-loop Poisson generator at two fixed rates.

    The client is one thread with two connections: first occurrences go
    on connection 0, byte-exact repeats on connection 1.  Nothing on
    connection 0 can be a cache hit and everything on connection 1 is
    one, so the server answers each connection in request order; each
    repeat's answer must equal the bytes of its payload's first answer,
    which checks that cached answers equal cold ones.
    Latency runs from each request's due instant, fixed before the run,
    to the arrival of its answer. *)

val rates : Inputs.shape -> float * float
(** [(light, heavy)] arrivals per second: about 40% and 85% of the
    saturation rate found with {!probe} on a 2-core machine. *)

val limit_ms : float
(** Latency limit of the goodput count. *)

val run :
  Inputs.shape -> seed:int -> seconds:float -> trace:bool -> sock:string ->
  Report.t

val probe :
  Inputs.shape -> seed:int -> rate:float -> count:int -> sock:string ->
  float * float
(** [(p50, p99)] latency in ms of [count] requests of the mix sent open
    loop at [rate] per second — the calibration behind {!rates}. *)
