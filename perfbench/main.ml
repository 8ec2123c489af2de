(* One phase of one workload, as a process of its own:

     main.exe plan|recover|serve --workload W --seed N --seconds S
              --trace 0|1 [--sock PATH]
     main.exe probe --workload W --seed N --rate R [--count C] [--sock PATH]

   A phase prints one JSON line (see Report); probe prints the median
   and 99th-percentile latency of C serve requests sent open loop at R
   per second, the calibration of Serve_phase.rates.  A refused run
   exits with code 2. *)

open Perfbench

let () =
  let args = Array.to_list Sys.argv in
  let phase, opts =
    match args with
    | _ :: phase :: rest -> (phase, rest)
    | _ -> ("", [])
  in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let get name default = Option.value (opt name opts) ~default in
  try
    let shape = Inputs.shape_of_workload (get "--workload" "") in
    let seed = int_of_string (get "--seed" "1") in
    let seconds = float_of_string (get "--seconds" "20") in
    let trace = get "--trace" "0" = "1" in
    let sock = get "--sock" "perfbench.sock" in
    match phase with
    | "plan" -> Report.print (Plan_phase.run shape ~seed ~seconds ~trace)
    | "recover" -> Report.print (Recover_phase.run shape ~seed ~seconds ~trace)
    | "serve" ->
        Report.print (Serve_phase.run shape ~seed ~seconds ~trace ~sock)
    | "probe" ->
        let rate = float_of_string (get "--rate" "100") in
        let count = int_of_string (get "--count" "2000") in
        let p50, p99 = Serve_phase.probe shape ~seed ~rate ~count ~sock in
        Printf.printf "rate %.0f/s  p50 %.2f ms  p99 %.2f ms\n" rate p50 p99
    | _ -> invalid_arg ("unknown phase " ^ phase)
  with Failure msg | Invalid_argument msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 2
