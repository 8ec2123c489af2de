(** The experiment registry: every figure, table and ablation of the
    reproduction as one entry.  [ftsched experiment WHAT] and the bench's
    figure targets both run entries from {!all}, so the parameters of an
    experiment (ε, crash counts, ports, sizes, seeds per point, …) are
    written once, here.  Adding an experiment is adding one entry. *)

type params = {
  full : bool;  (** paper scale: {!Workload.paper} and the full sizes *)
  graphs : int option;  (** override graphs (stream: seeds) per point *)
  seed : int option;
      (** master seed; [None] keeps each driver's default (2008, and 1
          for Table 1) *)
}

type panel = {
  slug : string;  (** file stem of the panel's CSV / gnuplot output *)
  caption : string;  (** one line describing the panel *)
  table : Ftsched_util.Table.t;
}

type result = { panels : panel list; failed : string list }
(** [panels] in the order of the entry's [slugs]; [failed]: ids of the
    checks that do not hold. *)

type entry = {
  id : string;  (** the name both front ends select the entry by *)
  title : string;  (** section title *)
  slugs : string list;  (** slugs of the panels [run] returns *)
  run : params -> result;
}

val all : entry list
(** In presentation order: [fig1]–[fig4], [table1], [claims], the
    ablations, [adversary], [stream] (A7) and [tournament] (A8). *)

val find : string -> entry option
