(* Tests for Ftsched_ds: AVL trees, pairing heaps, Hopcroft–Karp. *)

module Avl = Ftsched_ds.Avl
module Heap = Ftsched_ds.Pairing_heap
module Hk = Ftsched_ds.Hopcroft_karp
open Helpers

module Int_avl = Avl.Make (Int)
module Int_heap = Heap.Make (Int)
module Int_map = Map.Make (Int)

(* ------------------------------------------------------------------ *)
(* AVL                                                                 *)

type op = Add of int * int | Remove of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun k v -> Add (k, v)) (int_bound 50) (int_bound 1000));
        (1, map (fun k -> Remove k) (int_bound 50));
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Add (k, v) -> Printf.sprintf "+%d=%d" k v
             | Remove k -> Printf.sprintf "-%d" k)
           ops))
    QCheck.Gen.(list_size (int_range 0 200) op_gen)

let apply_ops ops =
  List.fold_left
    (fun (t, m) op ->
      match op with
      | Add (k, v) -> (Int_avl.add k v t, Int_map.add k v m)
      | Remove k -> (Int_avl.remove k t, Int_map.remove k m))
    (Int_avl.empty, Int_map.empty)
    ops

let prop_avl_vs_map =
  QCheck.Test.make ~name:"Avl agrees with Map model" ~count:300 ops_arb
    (fun ops ->
      let t, m = apply_ops ops in
      Int_avl.to_list t = Int_map.bindings m
      && Int_avl.cardinal t = Int_map.cardinal m
      && List.for_all
           (fun k -> Int_avl.find_opt k t = Int_map.find_opt k m)
           (List.init 51 (fun i -> i)))

let prop_avl_invariants =
  QCheck.Test.make ~name:"Avl invariants after random ops" ~count:300 ops_arb
    (fun ops ->
      let t, _ = apply_ops ops in
      Int_avl.check_invariants t)

let prop_avl_balance =
  QCheck.Test.make ~name:"Avl height is O(log n)" ~count:50
    QCheck.(int_range 1 2000)
    (fun n ->
      (* worst adversary for naive BSTs: sorted insertion *)
      let t = ref Int_avl.empty in
      for i = 1 to n do
        t := Int_avl.add i i !t
      done;
      let h = Int_avl.height !t in
      float_of_int h <= 1.4405 *. (log (float_of_int n +. 2.) /. log 2.))

let prop_avl_pop_max_sorted =
  QCheck.Test.make ~name:"Avl pop_max drains in decreasing order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun l ->
      let t = Int_avl.of_list (List.map (fun k -> (k, k)) l) in
      let rec drain acc t =
        match Int_avl.pop_max t with
        | None -> List.rev acc
        | Some (k, _, t') -> drain (k :: acc) t'
      in
      drain [] t = List.rev (List.sort_uniq compare l))

let test_avl_pop_min () =
  let t = Int_avl.of_list [ (3, "c"); (1, "a"); (2, "b") ] in
  match Int_avl.pop_min t with
  | Some (1, "a", t') ->
      check_int "cardinal" 2 (Int_avl.cardinal t');
      check_bool "1 gone" false (Int_avl.mem 1 t')
  | _ -> Alcotest.fail "wrong minimum"

let test_avl_empty () =
  check_bool "is_empty" true (Int_avl.is_empty Int_avl.empty);
  check_bool "pop_max none" true (Int_avl.pop_max Int_avl.empty = None);
  check_bool "pop_min none" true (Int_avl.pop_min Int_avl.empty = None);
  check_bool "min none" true (Int_avl.min_binding_opt Int_avl.empty = None);
  check_int "cardinal" 0 (Int_avl.cardinal Int_avl.empty)

let test_avl_replace () =
  let t = Int_avl.add 1 "old" Int_avl.empty in
  let t = Int_avl.add 1 "new" t in
  check_int "no duplicate" 1 (Int_avl.cardinal t);
  Alcotest.(check (option string)) "replaced" (Some "new") (Int_avl.find_opt 1 t)

let test_avl_remove_absent () =
  let t = Int_avl.add 1 1 Int_avl.empty in
  let t' = Int_avl.remove 99 t in
  check_int "unchanged" 1 (Int_avl.cardinal t')

let test_avl_fold_order () =
  let t = Int_avl.of_list [ (2, ()); (1, ()); (3, ()) ] in
  let keys = List.rev (Int_avl.fold (fun k () acc -> k :: acc) t []) in
  Alcotest.(check (list int)) "increasing" [ 1; 2; 3 ] keys

let test_avl_persistence () =
  let t1 = Int_avl.of_list [ (1, 1); (2, 2) ] in
  let t2 = Int_avl.remove 1 t1 in
  check_bool "t1 untouched" true (Int_avl.mem 1 t1);
  check_bool "t2 updated" false (Int_avl.mem 1 t2)

(* ------------------------------------------------------------------ *)
(* Pairing heap                                                        *)

let prop_heap_sorts =
  QCheck.Test.make ~name:"Pairing_heap drains sorted" ~count:300
    QCheck.(list int)
    (fun l ->
      Int_heap.to_sorted_list (Int_heap.of_list l) = List.sort compare l)

let prop_heap_merge =
  QCheck.Test.make ~name:"Pairing_heap merge is union" ~count:200
    QCheck.(pair (list int) (list int))
    (fun (a, b) ->
      let h = Int_heap.merge (Int_heap.of_list a) (Int_heap.of_list b) in
      Int_heap.to_sorted_list h = List.sort compare (a @ b))

let prop_heap_cardinal =
  QCheck.Test.make ~name:"Pairing_heap cardinal" ~count:200
    QCheck.(list int)
    (fun l -> Int_heap.cardinal (Int_heap.of_list l) = List.length l)

let test_heap_empty () =
  check_bool "is_empty" true (Int_heap.is_empty Int_heap.empty);
  check_bool "find none" true (Int_heap.find_min Int_heap.empty = None);
  check_bool "pop none" true (Int_heap.pop_min Int_heap.empty = None)

let test_heap_find_min () =
  let h = Int_heap.of_list [ 5; 2; 9 ] in
  Alcotest.(check (option int)) "min" (Some 2) (Int_heap.find_min h);
  check_int "find_min does not consume" 3 (Int_heap.cardinal h)

let test_heap_duplicates () =
  let h = Int_heap.of_list [ 1; 1; 1 ] in
  Alcotest.(check (list int)) "keeps duplicates" [ 1; 1; 1 ]
    (Int_heap.to_sorted_list h)

(* ------------------------------------------------------------------ *)
(* Event min-heap                                                      *)

module Eh = Ftsched_ds.Event_heap

(* Model: pushing (at, seq) keys with seq = push index pops them in
   increasing lexicographic (at, seq) order, payload attached.  A small
   timestamp alphabet forces plenty of equal-[at] collisions, which is
   exactly where the seq ordering carries the determinism argument. *)
let events_arb =
  QCheck.make
    ~print:(fun l ->
      String.concat ";" (List.map (fun at -> Printf.sprintf "%.1f" at) l))
    QCheck.Gen.(
      list_size (int_range 0 200)
        (map (fun i -> float_of_int i /. 2.) (int_bound 10)))

let drain_events h =
  let acc = ref [] in
  while not (Eh.is_empty h) do
    acc := (Eh.min_at h, Eh.min_seq h, Eh.min_payload h) :: !acc;
    Eh.drop_min h
  done;
  List.rev !acc

let prop_event_heap_drains_sorted =
  QCheck.Test.make ~name:"Event_heap pops increasing (at, seq) with payload"
    ~count:300 events_arb
    (fun ats ->
      let h = Eh.create ~capacity:1 () in
      let keys = List.mapi (fun seq at -> (at, seq, (seq * 3) + 1)) ats in
      List.iter (fun (at, seq, payload) -> Eh.push h ~at ~seq ~payload) keys;
      let expect =
        List.sort
          (fun (at1, s1, _) (at2, s2, _) ->
            match Float.compare at1 at2 with 0 -> compare s1 s2 | c -> c)
          keys
      in
      drain_events h = expect)

(* Model: the pending (at, seq) keys as a Set — unique by seq, ordered
   like the heap — so each model operation is O(log n). *)
module Event_keys = Set.Make (struct
  type t = float * int

  let compare (a1, s1) (a2, s2) =
    match Float.compare a1 a2 with 0 -> compare s1 s2 | c -> c
end)

let prop_event_heap_interleaved =
  QCheck.Test.make
    ~name:"Event_heap interleaved push/pop matches Set model"
    ~count:300
    QCheck.(list (int_bound 8))
    (fun ops ->
      let h = Eh.create ~capacity:1 () in
      let model = ref Event_keys.empty in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun at ->
          match Event_keys.min_elt_opt !model with
          | Some ((mat, mseq) as key) when at = 0 ->
              if Eh.min_at h <> mat || Eh.min_seq h <> mseq then ok := false;
              Eh.drop_min h;
              model := Event_keys.remove key !model
          | _ ->
              incr seq;
              let at = float_of_int at in
              Eh.push h ~at ~seq:!seq ~payload:0;
              model := Event_keys.add (at, !seq) !model)
        ops;
      !ok)

let test_event_heap_empty_raises () =
  let h = Eh.create () in
  check_bool "is_empty" true (Eh.is_empty h);
  check_int "length" 0 (Eh.length h);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "min_at raises" true (raises (fun () -> Eh.min_at h));
  check_bool "min_seq raises" true (raises (fun () -> Eh.min_seq h));
  check_bool "min_payload raises" true (raises (fun () -> Eh.min_payload h));
  check_bool "drop_min raises" true (raises (fun () -> Eh.drop_min h))

let test_event_heap_clear_reuses () =
  let h = Eh.create ~capacity:2 () in
  for seq = 0 to 99 do
    Eh.push h ~at:(float_of_int (seq mod 7)) ~seq ~payload:seq
  done;
  check_int "grown" 100 (Eh.length h);
  Eh.clear h;
  check_bool "cleared" true (Eh.is_empty h);
  Eh.push h ~at:3. ~seq:42 ~payload:7;
  check_int "usable after clear" 42 (Eh.min_seq h);
  check_int "payload" 7 (Eh.min_payload h)

(* ------------------------------------------------------------------ *)
(* Binary max-heap                                                     *)

module Bh = Ftsched_ds.Bin_heap

(* Model: a heap holding distinct (prio, tie, task) keys pops them in
   decreasing lexicographic order.  Distinct tasks guarantee distinct
   keys even when prio/tie collide — exactly the driver's situation. *)
let keys_arb =
  QCheck.make
    ~print:(fun keys ->
      String.concat ";"
        (List.map
           (fun (p, t, task) -> Printf.sprintf "(%g,%g,#%d)" p t task)
           keys))
    QCheck.Gen.(
      list_size (int_range 0 150)
        (pair (int_bound 5) (int_bound 5))
      >|= List.mapi (fun task (p, t) ->
              (float_of_int p, float_of_int t, task)))

let drain h =
  let acc = ref [] in
  while not (Bh.is_empty h) do
    acc := (Bh.max_prio h, Bh.max_task h) :: !acc;
    Bh.drop_max h
  done;
  List.rev !acc

let prop_bin_heap_drains_sorted =
  QCheck.Test.make ~name:"Bin_heap pops decreasing (prio, tie, task)"
    ~count:300 keys_arb
    (fun keys ->
      let h = Bh.create ~capacity:1 () in
      List.iter (fun (p, t, task) -> Bh.push h ~prio:p ~tie:t ~task) keys;
      let expect =
        List.sort (fun a b -> compare b a) keys
        |> List.map (fun (p, _, task) -> (p, task))
      in
      drain h = expect)

(* Model: the pending (prio, tie, task) keys as a Set — unique by task,
   ordered like the heap — so each model operation is O(log n). *)
module Prio_keys = Set.Make (struct
  type t = float * float * int

  let compare = compare
end)

let prop_bin_heap_interleaved =
  QCheck.Test.make
    ~name:"Bin_heap interleaved push/pop matches Set model"
    ~count:300
    QCheck.(list (pair (int_bound 8) (int_bound 8)))
    (fun ops ->
      (* pop every third op so pushes and pops interleave like the
         driver loop *)
      let h = Bh.create () in
      let model = ref Prio_keys.empty and size = ref 0 in
      let ok = ref true in
      List.iteri
        (fun i (p, t) ->
          let key = (float_of_int p, float_of_int t, i) in
          let p, t, task = key in
          Bh.push h ~prio:p ~tie:t ~task;
          model := Prio_keys.add key !model;
          incr size;
          if i mod 3 = 2 then begin
            (match Prio_keys.max_elt_opt !model with
            | Some ((mp, _, mtask) as top) ->
                if Bh.max_task h <> mtask || Bh.max_prio h <> mp then
                  ok := false;
                Bh.drop_max h;
                model := Prio_keys.remove top !model;
                decr size
            | None -> ok := false);
            if Bh.length h <> !size then ok := false
          end)
        ops;
      !ok)

let test_bin_heap_empty_raises () =
  let h = Bh.create () in
  check_bool "is_empty" true (Bh.is_empty h);
  check_int "length" 0 (Bh.length h);
  let raises f =
    try
      f ();
      false
    with Invalid_argument _ -> true
  in
  check_bool "max_task raises" true (raises (fun () -> ignore (Bh.max_task h)));
  check_bool "max_prio raises" true (raises (fun () -> ignore (Bh.max_prio h)));
  check_bool "drop_max raises" true (raises (fun () -> Bh.drop_max h))

let test_bin_heap_clear_reuses () =
  let h = Bh.create ~capacity:2 () in
  for task = 0 to 99 do
    Bh.push h ~prio:(float_of_int (task mod 7)) ~tie:0. ~task
  done;
  check_int "length before clear" 100 (Bh.length h);
  Bh.clear h;
  check_bool "empty after clear" true (Bh.is_empty h);
  Bh.push h ~prio:3. ~tie:1. ~task:42;
  check_int "usable after clear" 42 (Bh.max_task h);
  check_bool "max_prio" true (Bh.max_prio h = 3.)

let test_bin_heap_tie_breaks () =
  (* equal prio: larger tie wins; equal (prio, tie): larger task wins *)
  let h = Bh.create () in
  Bh.push h ~prio:1. ~tie:0.5 ~task:3;
  Bh.push h ~prio:1. ~tie:0.9 ~task:1;
  Bh.push h ~prio:1. ~tie:0.9 ~task:2;
  check_int "tie then task" 2 (Bh.max_task h);
  Bh.drop_max h;
  check_int "next" 1 (Bh.max_task h);
  Bh.drop_max h;
  check_int "last" 3 (Bh.max_task h)

(* ------------------------------------------------------------------ *)
(* Hopcroft–Karp                                                       *)

(* Reference: maximum bipartite matching by Kuhn's augmenting paths. *)
let reference_matching ~n_left ~n_right ~adj =
  let match_r = Array.make n_right (-1) in
  let rec try_kuhn u seen =
    List.exists
      (fun v ->
        if seen.(v) then false
        else begin
          seen.(v) <- true;
          if match_r.(v) = -1 || try_kuhn match_r.(v) seen then begin
            match_r.(v) <- u;
            true
          end
          else false
        end)
      adj.(u)
  in
  let size = ref 0 in
  for u = 0 to n_left - 1 do
    if try_kuhn u (Array.make n_right false) then incr size
  done;
  !size

let bipartite_arb =
  QCheck.make
    ~print:(fun (nl, nr, edges) ->
      Printf.sprintf "nl=%d nr=%d edges=%s" nl nr
        (String.concat ","
           (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) edges)))
    QCheck.Gen.(
      int_range 1 8 >>= fun nl ->
      int_range 1 8 >>= fun nr ->
      list_size (int_range 0 30)
        (pair (int_bound (nl - 1)) (int_bound (nr - 1)))
      >>= fun edges -> return (nl, nr, edges))

let adj_of ~n_left edges =
  let adj = Array.make n_left [] in
  List.iter
    (fun (u, v) -> if not (List.mem v adj.(u)) then adj.(u) <- v :: adj.(u))
    edges;
  adj

let prop_hk_max_size =
  QCheck.Test.make ~name:"Hopcroft–Karp size equals reference" ~count:500
    bipartite_arb
    (fun (n_left, n_right, edges) ->
      let adj = adj_of ~n_left edges in
      let r = Hk.max_matching ~n_left ~n_right ~adj in
      r.Hk.size = reference_matching ~n_left ~n_right ~adj)

let prop_hk_valid_matching =
  QCheck.Test.make ~name:"Hopcroft–Karp produces a valid matching" ~count:500
    bipartite_arb
    (fun (n_left, n_right, edges) ->
      let adj = adj_of ~n_left edges in
      let r = Hk.max_matching ~n_left ~n_right ~adj in
      let ok = ref true in
      Array.iteri
        (fun u v ->
          if v <> -1 then begin
            if not (List.mem v adj.(u)) then ok := false;
            if r.Hk.match_right.(v) <> u then ok := false
          end)
        r.Hk.match_left;
      let matched =
        Array.to_list r.Hk.match_left |> List.filter (fun v -> v >= 0)
      in
      List.length (List.sort_uniq compare matched) = List.length matched && !ok)

let test_hk_perfect () =
  let adj = Array.make 3 [ 0; 1; 2 ] in
  let r = Hk.max_matching ~n_left:3 ~n_right:3 ~adj in
  check_int "size" 3 r.Hk.size;
  check_bool "perfect" true (Hk.is_perfect_on_left r)

let test_hk_bottleneck_structure () =
  (* left 0 and 1 both only connect to right 0: max matching is 1 *)
  let adj = [| [ 0 ]; [ 0 ] |] in
  let r = Hk.max_matching ~n_left:2 ~n_right:2 ~adj in
  check_int "size" 1 r.Hk.size;
  check_bool "not perfect" false (Hk.is_perfect_on_left r)

let test_hk_empty_graph () =
  let adj = [| []; [] |] in
  let r = Hk.max_matching ~n_left:2 ~n_right:3 ~adj in
  check_int "size" 0 r.Hk.size

let test_hk_bad_input () =
  Alcotest.check_raises "neighbour out of range"
    (Invalid_argument "Hopcroft_karp.max_matching: neighbour out of range")
    (fun () -> ignore (Hk.max_matching ~n_left:1 ~n_right:1 ~adj:[| [ 5 ] |]))

let () =
  Alcotest.run "ds"
    [
      ( "avl",
        [
          quick prop_avl_vs_map;
          quick prop_avl_invariants;
          quick prop_avl_balance;
          quick prop_avl_pop_max_sorted;
          Alcotest.test_case "pop_min" `Quick test_avl_pop_min;
          Alcotest.test_case "empty" `Quick test_avl_empty;
          Alcotest.test_case "replace" `Quick test_avl_replace;
          Alcotest.test_case "remove absent" `Quick test_avl_remove_absent;
          Alcotest.test_case "fold order" `Quick test_avl_fold_order;
          Alcotest.test_case "persistence" `Quick test_avl_persistence;
        ] );
      ( "pairing-heap",
        [
          quick prop_heap_sorts;
          quick prop_heap_merge;
          quick prop_heap_cardinal;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "find_min" `Quick test_heap_find_min;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
        ] );
      ( "event-heap",
        [
          quick prop_event_heap_drains_sorted;
          quick prop_event_heap_interleaved;
          Alcotest.test_case "empty raises" `Quick test_event_heap_empty_raises;
          Alcotest.test_case "clear and grow" `Quick
            test_event_heap_clear_reuses;
        ] );
      ( "bin-heap",
        [
          quick prop_bin_heap_drains_sorted;
          quick prop_bin_heap_interleaved;
          Alcotest.test_case "empty raises" `Quick test_bin_heap_empty_raises;
          Alcotest.test_case "clear and grow" `Quick test_bin_heap_clear_reuses;
          Alcotest.test_case "tie-breaking" `Quick test_bin_heap_tie_breaks;
        ] );
      ( "hopcroft-karp",
        [
          quick prop_hk_max_size;
          quick prop_hk_valid_matching;
          Alcotest.test_case "perfect K33" `Quick test_hk_perfect;
          Alcotest.test_case "bottleneck" `Quick test_hk_bottleneck_structure;
          Alcotest.test_case "empty graph" `Quick test_hk_empty_graph;
          Alcotest.test_case "bad input" `Quick test_hk_bad_input;
        ] );
    ]
