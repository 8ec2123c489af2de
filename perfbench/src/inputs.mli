(** Everything a run feeds the program, derived from the workload and
    [--seed] alone: equal arguments give byte-identical inputs. *)

type shape =
  | Dense  (** layered DAGs, about 45 edges per task at v = 5000 *)
  | Sparse  (** Montage-style pegasus DAGs, about 2 edges per task *)

val workloads : (string * shape) list
(** [("layered-dense", Dense); ("pegasus-sparse", Sparse)]. *)

val shape_of_workload : string -> shape
(** Raises [Invalid_argument] on an unknown name. *)

val derive : seed:int -> string -> int -> int
(** [derive ~seed purpose i] is the seed of the [i]-th input drawn for
    [purpose]. *)

val instance :
  shape -> seed:int -> n_tasks:int -> m:int -> Ftsched_model.Instance.t
(** DAG, then a random platform with delays in [0.5, 1), then the
    unrelated-machines cost matrix, all from one generator. *)

val arrivals : seed:int -> rate:float -> count:int -> float array
(** Due instants (seconds from the phase start) of [count] Poisson
    arrivals at [rate] per second; increasing. *)

(** {1 The serve request stream} *)

type payload = {
  line : string;  (** request line, rendered by {!Ftsched_serve.Protocol} *)
  body : int;  (** index into [bodies], or [-1] for none *)
}

type request = {
  due : float;  (** seconds from the phase start *)
  payload : int;  (** index into [payloads] *)
  repeat : bool;  (** a byte-exact repeat of an earlier request *)
}

type serve = {
  bodies : string array;  (** instance and schedule documents *)
  payloads : payload array;  (** distinct requests, in first-use order *)
  phases : (string * float * request array) list;
      (** [(name, rate, requests)]; repeats only name payloads first
          sent earlier in the same phase *)
}

val serve :
  shape -> seed:int -> phases:(string * float * int) list -> serve
(** [phases] lists [(name, rate, count)].  One arrival in four is a
    repeat (none in a phase's first 40 first uses); the rest are
    [schedule ftsa], [schedule mc-ftsa], [simulate] and [stream]
    requests in the proportions 6:4:7:3, on 96 instances of 40 to 300
    tasks spaced evenly on a log scale; schedules use eps 1, simulations
    one crash, streams a duration of 20.  The mix, the sizes and these
    values are assumptions, not measured traffic. *)

val frame : serve -> int -> string
(** The framed bytes of a payload, ready to send. *)

val digest : serve -> string
(** Hex digest of the whole stream: bodies, payloads and due instants. *)
