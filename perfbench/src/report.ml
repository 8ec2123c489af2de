type t = {
  phase : string;
  mutable metrics : (string * string * float) list;
  mutable notes : string list;
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  mutable setup : float array;
  mutable peak_heap : float option;
}

let create ~phase =
  {
    phase;
    metrics = [];
    notes = [];
    attempted = 0;
    failed = 0;
    correct = true;
    setup = [||];
    peak_heap = None;
  }

let metric t name ~unit v =
  let v = if Float.is_finite v then v else 0. in
  t.metrics <- (name, unit, v) :: t.metrics

let note t fmt = Printf.ksprintf (fun s -> t.notes <- s :: t.notes) fmt

let percentile t name ~samples ~p =
  match Pct.nearest_rank samples p with
  | None ->
      failwith
        (Printf.sprintf
           "%s: %d samples are too few for the p%g rule (need %d)" name
           (Array.length samples) p (Pct.needed p))
  | Some (v, n) ->
      metric t name ~unit:"ms" v;
      note t "%s = %.3f ms (p%g of %d samples)" name v p n

let attempt t ~ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let check t cond fmt =
  Printf.ksprintf
    (fun s ->
      if not cond then begin
        t.correct <- false;
        t.notes <- ("CHECK FAILED: " ^ s) :: t.notes
      end)
    fmt

let spans t summary =
  List.iter
    (fun (name, (s : Span.summary)) ->
      note t "span %-24s n=%-7d busy %10.4f s  self %10.4f s" name s.count
        s.busy s.self)
    summary

let set_setup t xs = t.setup <- xs

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let mark_peak_heap t = t.peak_heap <- Some (peak_heap_mb ())

let print t =
  let metrics =
    List.rev_map
      (fun (name, unit, v) ->
        Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}"
          (json_string name) v (json_string unit))
      t.metrics
  in
  Printf.printf
    "{\"phase\": %s, \"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"setup_s\": %.17g, \"peak_heap_mb\": %.17g, \"metrics\": {%s}, \
     \"notes\": [%s]}\n%!"
    (json_string t.phase) t.correct t.attempted t.failed
    (let s = Pct.median t.setup in if Float.is_nan s then 0. else s)
    (match t.peak_heap with Some mb -> mb | None -> peak_heap_mb ())
    (String.concat ", " metrics)
    (String.concat ", " (List.rev_map json_string t.notes))
