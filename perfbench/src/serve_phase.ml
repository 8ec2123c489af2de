module Server = Ftsched_serve.Server
module Protocol = Ftsched_serve.Protocol
module Serialize = Ftsched_schedule.Serialize
module Scenario = Ftsched_sim.Scenario
module Crash_exec = Ftsched_sim.Crash_exec
module Stream = Ftsched_stream.Stream
module Rng = Ftsched_util.Rng

let jobs = 2
let limit_ms = 250.

(* Open-loop probes (main.exe probe) put saturation, where the median
   latency takes off, near 340/s for the dense mix and 680/s for the
   sparse one. *)
let rates = function
  | Inputs.Dense -> (135., 290.)
  | Inputs.Sparse -> (270., 580.)

(* The generator is trusted only while it keeps to its schedule: a late
   generator offers less load than the rate it claims. *)
let gen_late_limit_ms = 25.

(* ------------------------------------------------------------------ *)
(* Server and connections                                              *)

type conn = {
  fd : Unix.file_descr;
  reader : Protocol.reader;
  pending : string Queue.t;
  mutable off : int;  (** bytes of the head of [pending] already written *)
}

type server = {
  srv : Server.t;
  domain : Server.metrics Domain.t;
  conns : conn array;
}

let blocking_roundtrip fd payload =
  let frame = Protocol.encode_frame payload in
  let len = String.length frame in
  let rec send off =
    if off < len then send (off + Unix.write_substring fd frame off (len - off))
  in
  send 0;
  let reader = Protocol.create_reader () and buf = Bytes.create 4096 in
  let rec recv () =
    match Protocol.reader_next reader with
    | `Frame p -> p
    | `Error e -> failwith (Format.asprintf "%a" Protocol.pp_error e)
    | `More ->
        let n = Unix.read fd buf 0 (Bytes.length buf) in
        if n = 0 then failwith "server closed the connection";
        Protocol.reader_feed reader buf n;
        recv ()
  in
  recv ()

let start ~sock =
  let config =
    {
      Server.default_config with
      Server.capacity = 1_000_000;
      jobs = Some jobs;
      idle_timeout = 3600.;
    }
  in
  let srv = Server.create ~config (Server.Unix_socket sock) in
  let domain = Domain.spawn (fun () -> Server.serve srv) in
  let conns =
    Array.init 2 (fun _ ->
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        (match Protocol.classify_response (blocking_roundtrip fd "health") with
        | `Ok ("health", _) -> ()
        | _ -> failwith "serve: bad health answer");
        Unix.set_nonblock fd;
        {
          fd;
          reader = Protocol.create_reader ();
          pending = Queue.create ();
          off = 0;
        })
  in
  { srv; domain; conns }

let stop s ~sock =
  Array.iter
    (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    s.conns;
  Server.stop s.srv;
  let m = Domain.join s.domain in
  (try Sys.remove sock with Sys_error _ -> ());
  m

(* ------------------------------------------------------------------ *)
(* The open loop                                                       *)

type outcome = {
  sent : float array;  (** when the request was queued for writing *)
  done_ : float array;  (** when its answer arrived; [nan] if never *)
  ok : bool array;
  mismatched : int;  (** repeat answers unequal to their first answer *)
  held : int;  (** repeats held back until their original was answered *)
  ended : float;  (** when the loop stopped waiting *)
}

let retry = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR -> true
  | _ -> false

let flush c =
  let rec go () =
    match Queue.peek_opt c.pending with
    | None -> ()
    | Some s -> (
        let len = String.length s - c.off in
        match Unix.write_substring c.fd s c.off len with
        | n when n = len ->
            ignore (Queue.pop c.pending);
            c.off <- 0;
            go ()
        | n -> c.off <- c.off + n
        | exception Unix.Unix_error (err, _, _) when retry err -> ())
  in
  go ()

let read_frames c buf on_frame =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error (err, _, _) when retry err -> ()
  | 0 -> failwith "serve: server closed a connection"
  | n ->
      Protocol.reader_feed c.reader buf n;
      let rec drain () =
        match Protocol.reader_next c.reader with
        | `More -> ()
        | `Error e -> failwith (Format.asprintf "serve: %a" Protocol.pp_error e)
        | `Frame p ->
            on_frame p;
            drain ()
      in
      drain ()

let is_ok p = match Protocol.classify_response p with `Ok _ -> true | _ -> false

let ms_after_due ~t_start (r : Inputs.request) t =
  (t -. t_start -. r.due) *. 1000.

(* When the last answer of a phase arrived. *)
let last_answer ~t_start o =
  Array.fold_left
    (fun a d -> if Float.is_nan d then a else Float.max a d)
    t_start o.done_

(* [hashed.(p)]: payload [p] has repeats, so its first answer is digested
   and [first_answer] records it.

   A repeat is sent only once the first answer to its payload has
   arrived: otherwise, behind a backlog on connection 0, it could reach
   the server first and turn the original into a cache hit answered out
   of order.  The hold counts in the repeat's latency, which runs from
   its due instant like every other.  By then the server has cached the
   answer, and a repeat names a payload at most 200 first uses back while
   the cache holds 256, so every repeat is a cache hit; the server writes
   hits in arrival order, and connection 1 answers in order too. *)
let open_loop (inputs : Inputs.serve) s (reqs : Inputs.request array) ~t_start
    ~hashed ~first_answer ~give_up =
  let n = Array.length reqs in
  let sent = Array.make n nan and done_ = Array.make n nan in
  let ok = Array.make n false in
  let answered = Array.make (Array.length inputs.payloads) false in
  let fifos = Array.init 2 (fun _ -> Queue.create ()) and held = ref [] in
  let n_held = ref 0 and mismatched = ref 0 in
  let next = ref 0 and received = ref 0 in
  let buf = Bytes.create 65536 in
  let fds = Array.to_list (Array.map (fun c -> c.fd) s.conns) in
  let on_frame k p =
    let now = Unix.gettimeofday () in
    incr received;
    let i = Queue.pop fifos.(k) in
    let pl = reqs.(i).payload in
    done_.(i) <- now;
    ok.(i) <- is_ok p;
    if k = 0 then begin
      answered.(pl) <- true;
      if hashed.(pl) then Hashtbl.replace first_answer pl (Digest.string p)
    end
    else if
      not (Option.equal String.equal (Hashtbl.find_opt first_answer pl)
             (Some (Digest.string p)))
    then begin
      incr mismatched;
      ok.(i) <- false
    end
  in
  let send i now =
    let r = reqs.(i) in
    let k = if r.repeat then 1 else 0 in
    Queue.push (Inputs.frame inputs r.payload) s.conns.(k).pending;
    sent.(i) <- now;
    Queue.push i fifos.(k)
  in
  let deadline =
    t_start +. (if n = 0 then 0. else reqs.(n - 1).due) +. give_up
  in
  while !received < n && Unix.gettimeofday () < deadline do
    let now = Unix.gettimeofday () in
    if !held <> [] then
      held :=
        List.filter
          (fun i ->
            let go = answered.(reqs.(i).payload) in
            if go then send i now;
            not go)
          !held;
    while !next < n && t_start +. reqs.(!next).due <= now do
      let i = !next in
      if reqs.(i).repeat && not answered.(reqs.(i).payload) then begin
        held := !held @ [ i ];
        incr n_held
      end
      else send i now;
      incr next
    done;
    Array.iter flush s.conns;
    let writers =
      List.filter_map
        (fun c -> if Queue.is_empty c.pending then None else Some c.fd)
        (Array.to_list s.conns)
    in
    let timeout =
      if !next < n then Float.max 0. (t_start +. reqs.(!next).due -. now)
      else 0.05
    in
    match Unix.select fds writers [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        Array.iteri
          (fun k c ->
            if List.memq c.fd readable then read_frames c buf (on_frame k))
          s.conns
  done;
  {
    sent;
    done_;
    ok;
    mismatched = !mismatched;
    held = !n_held;
    ended = Unix.gettimeofday ();
  }

(* ------------------------------------------------------------------ *)
(* Handler replay: the public pieces the server's handler calls        *)

let replay_one (inputs : Inputs.serve) pl =
  let span = Span.with_span in
  let p = inputs.payloads.(pl) in
  let payload =
    if p.body < 0 then p.line else p.line ^ "\n" ^ inputs.bodies.(p.body)
  in
  span "serve.replay.request" @@ fun () ->
  let parse f = span "serve.replay.parse" f in
  match parse (fun () -> Protocol.parse_request payload) with
  | Error e -> Protocol.error_response e
  | Ok (Protocol.Schedule { algo; eps; seed; body }, _) ->
      let inst = parse (fun () -> Serialize.instance_of_string body) in
      let s =
        span "serve.replay.compute" (fun () ->
            match algo with
            | "ftsa" -> Ftsched_core.Ftsa.schedule ~seed inst ~eps
            | _ -> Ftsched_core.Mc_ftsa.schedule ~seed inst ~eps)
      in
      span "serve.replay.serialize" (fun () ->
          Protocol.ok_response ~kind:"schedule"
            (Serialize.schedule_to_string s))
  | Ok (Protocol.Simulate { crashes; seed; body }, _) ->
      let s = parse (fun () -> Serialize.schedule_of_string body) in
      let r =
        span "serve.replay.compute" (fun () ->
            let m =
              Ftsched_model.Instance.n_procs
                (Ftsched_schedule.Schedule.instance s)
            in
            Crash_exec.run ~policy:Crash_exec.Reroute s
              (Scenario.random (Rng.create ~seed) ~m ~count:crashes))
      in
      span "serve.replay.serialize" (fun () ->
          Protocol.ok_response ~kind:"simulate"
            (match r.Crash_exec.latency with
            | Some l -> Printf.sprintf "latency %h" l
            | None -> "defeated"))
  | Ok (Protocol.Stream { seed; duration; m }, _) ->
      let r =
        span "stream.run" (fun () ->
            Stream.run_trace
              ~config:
                { Stream.default_config with Stream.m; duration;
                  chaos = Stream.default_chaos }
              ~seed ())
      in
      span "serve.replay.serialize" (fun () ->
          let t = r.Stream.totals in
          Protocol.ok_response ~kind:"stream"
            (Printf.sprintf
               "digest %s submitted %d admitted %d completed %d degraded %d \
                rejected %d aborted %d"
               (Stream.report_digest r) t.Stream.submitted t.Stream.admitted
               t.Stream.completed t.Stream.degraded t.Stream.rejected
               t.Stream.aborted))
  | Ok ((Protocol.Health | Protocol.Metrics), _) -> "ok info"

(* ------------------------------------------------------------------ *)
(* The phase                                                           *)

(* The first phase warms the server up — heap growth, a filling cache —
   and is not measured; latency falls steadily while it lasts. *)
let warmup = "warmup"

let counts ~seconds (light, heavy) =
  let floor = Pct.needed 99. * 6 / 5 in
  let n rate share = max floor (int_of_float (rate *. share *. seconds)) in
  [
    (warmup, light, int_of_float (light *. 0.1 *. seconds));
    ("light", light, n light 0.35);
    ("heavy", heavy, n heavy 0.3);
  ]

let hashed_of (inputs : Inputs.serve) =
  let h = Array.make (Array.length inputs.payloads) false in
  List.iter
    (fun (_, _, reqs) ->
      Array.iter
        (fun (r : Inputs.request) -> if r.repeat then h.(r.payload) <- true)
        reqs)
    inputs.phases;
  h

let run shape ~seed ~seconds ~trace ~sock =
  let report = Report.create ~phase:"serve" in
  let phases = counts ~seconds (rates shape) in
  let times = Array.make 5 0. and state = ref None in
  for k = 0 to 4 do
    Option.iter (fun (_, s) -> ignore (stop s ~sock)) !state;
    let t0 = Unix.gettimeofday () in
    let inputs = Inputs.serve shape ~seed ~phases in
    state := Some (inputs, start ~sock);
    times.(k) <- Unix.gettimeofday () -. t0
  done;
  Report.set_setup report times;
  let inputs, s = Option.get !state in
  let hashed = hashed_of inputs and first_answer = Hashtbl.create 1024 in
  let results =
    List.map
      (fun (name, rate, reqs) ->
        let t_start = Unix.gettimeofday () +. 0.01 in
        let o =
          open_loop inputs s reqs ~t_start ~hashed ~first_answer ~give_up:60.
        in
        (* The heavy phase's backlog, and the heap it holds, grow with how
           far a slower host falls below the fixed rate: it would measure
           the host.  The light phase stays below saturation. *)
        if name = "light" then Report.mark_peak_heap report;
        (name, rate, reqs, t_start, o))
      inputs.phases
  in
  let m = stop s ~sock in
  Report.check report (Server.check_accounting m = [])
    "server accounting: %s" (String.concat "; " (Server.check_accounting m));
  List.iter
    (fun (name, _, _, _, o) ->
      Array.iter (fun ok -> Report.attempt report ~ok) o.ok;
      Report.check report (o.mismatched = 0)
        "%s: %d repeat answers differ from the first answer" name o.mismatched)
    results;
  let results =
    List.filter (fun (name, _, _, _, _) -> name <> warmup) results
  in
  let lateness = ref [] in
  List.iter
    (fun (name, rate, (reqs : Inputs.request array), t_start, o) ->
      let n = Array.length reqs in
      let lat =
        Array.init n (fun i ->
            if not reqs.(i).repeat then
              lateness :=
                ms_after_due ~t_start reqs.(i) o.sent.(i) :: !lateness;
            (* A failed request counts as missing the limit, an
               unanswered one as waiting until the loop gave up. *)
            let answered =
              if Float.is_nan o.done_.(i) then o.ended else o.done_.(i)
            in
            let ms = ms_after_due ~t_start reqs.(i) answered in
            if o.ok.(i) then ms else Float.max limit_ms ms)
      in
      List.iter
        (fun p ->
          Report.percentile report
            (Printf.sprintf "serve.%s.p%g_ms" name p)
            ~samples:lat ~p)
        [ 50.; 99. ];
      let good =
        Array.fold_left (fun a l -> if l <= limit_ms then a + 1 else a) 0 lat
      in
      if name = "heavy" then
        Report.metric report "serve.heavy.goodput_rps" ~unit:"1/s"
          (float_of_int good /. (last_answer ~t_start o -. t_start));
      Report.note report
        "serve.%s: %d requests at %.0f/s, %d within %.0f ms, %d repeats held"
        name n rate good limit_ms o.held;
      if trace then
        Report.metric report (Printf.sprintf "serve.%s.samples" name)
          ~unit:"count" (float_of_int n))
    results;
  let lateness = Array.of_list !lateness in
  (match Pct.nearest_rank lateness 99. with
  | Some (late, n) ->
      Report.note report "generator lateness p99 %.3f ms over %d sends" late n;
      if late > gen_late_limit_ms then
        failwith
          (Printf.sprintf
             "serve: the generator ran %.1f ms late (p99), above %.0f ms; \
              it offered less load than its rate"
             late gen_late_limit_ms);
      if trace then Report.metric report "serve.gen_lateness_ms" ~unit:"ms" late
  | None -> failwith "serve: too few sends to judge the generator");
  if trace then begin
    let fate f = List.assoc f m.Server.fate_counts in
    Report.metric report "serve.cache_hit_ratio" ~unit:"share"
      (float_of_int m.cache_hits
      /. float_of_int (max 1 (m.cache_hits + m.cache_misses)));
    Report.metric report "serve.queue_high_water" ~unit:"count"
      (float_of_int m.queue_high_water);
    Report.metric report "serve.rejected" ~unit:"count"
      (float_of_int
         (fate Server.Rejected_overloaded + fate Server.Rejected_infeasible
        + fate Server.Rejected_malformed + fate Server.Rejected_unsupported));
    (* Request spans, rebuilt from the timestamps the loop records in
       every run, so the open loop itself carries no tracing cost. *)
    let walls = ref 0. and covered = ref 0. in
    List.iter
      (fun (_, _, (reqs : Inputs.request array), t_start, o) ->
        let iv =
          List.filter
            (fun (_, b) -> not (Float.is_nan b))
            (Array.to_list
               (Array.mapi
                  (fun i (r : Inputs.request) ->
                    (t_start +. r.due, o.done_.(i)))
                  reqs))
        in
        walls := !walls +. (last_answer ~t_start o -. t_start);
        covered := !covered +. Span.union_length iv)
      results;
    Report.metric report "trace.serve.unattributed_share" ~unit:"share"
      (1. -. (!covered /. !walls));
    (* Replay the light phase's first occurrences through the handler's
       public pieces, with and without spans. *)
    let _, _, light, light_start, light_o = List.hd results in
    let fresh =
      List.filter_map
        (fun i -> if light.(i).Inputs.repeat then None else Some i)
        (List.init (Array.length light) Fun.id)
    in
    let replay_all () =
      let t0 = Unix.gettimeofday () in
      let per = List.map (fun i ->
          let a = Unix.gettimeofday () in
          let resp = replay_one inputs light.(i).payload in
          (i, resp, (Unix.gettimeofday () -. a) *. 1000.)) fresh in
      (per, Unix.gettimeofday () -. t0)
    in
    (* The first pass warms up and checks the bytes; overhead compares
       the traced pass with a plain one run after it. *)
    let first, _ = replay_all () in
    Span.set_enabled true;
    let _, traced_wall = replay_all () in
    Span.set_enabled false;
    let plain, plain_wall = replay_all () in
    let sum = Span.summarize (Span.collect ()) in
    let busy = Span.busy sum in
    let differ =
      List.filter
        (fun (i, resp, _) ->
          match Hashtbl.find_opt first_answer light.(i).payload with
          | Some d -> not (String.equal d (Digest.string resp))
          | None -> false)
        first
    in
    Report.check report (differ = [])
      "%d replayed answers differ from the server's" (List.length differ);
    List.iter
      (fun (name, v) -> Report.metric report name ~unit:"s" v)
      [
        ("serve.replay.parse_s", busy "serve.replay.parse");
        ("serve.replay.compute_s", busy "serve.replay.compute");
        ("serve.replay.serialize_s", busy "serve.replay.serialize");
        ("stream.run_s", busy "stream.run");
      ];
    let rtt =
      Array.of_list
        (List.map
           (fun i ->
             ms_after_due ~t_start:light_start light.(i) light_o.done_.(i))
           fresh)
    in
    let handler = Array.of_list (List.map (fun (_, _, ms) -> ms) plain) in
    Report.metric report "serve.transport_queue_ms" ~unit:"ms"
      (Pct.median rtt -. Pct.median handler);
    Report.metric report "trace.serve.overhead_share" ~unit:"share"
      ((traced_wall /. plain_wall) -. 1.);
    Report.spans report sum
  end;
  report

let probe shape ~seed ~rate ~count ~sock =
  let inputs = Inputs.serve shape ~seed ~phases:[ ("probe", rate, count) ] in
  let s = start ~sock in
  let _, _, reqs = List.hd inputs.phases in
  let t_start = Unix.gettimeofday () +. 0.01 in
  let o =
    open_loop inputs s reqs ~t_start ~hashed:(hashed_of inputs)
      ~first_answer:(Hashtbl.create 64) ~give_up:600.
  in
  ignore (stop s ~sock);
  let lat = Array.mapi (fun i r -> ms_after_due ~t_start r o.done_.(i)) reqs in
  let pct p =
    match Pct.nearest_rank lat p with Some (v, _) -> v | None -> nan
  in
  (pct 50., pct 99.)
