(* End-to-end benchmark program: one workload, one seed, a closed loop of
   one item at a time.  Prints a human report, a [meta] JSON line and, as
   the last line, the result object
   {"correct", "attempted", "failed", "metrics"}.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--git-rev REV] [--setup-only 1]

   --trace 0 reports the end-to-end metrics (tracing off); --trace 1 runs
   each item through the facade and through its traced chain of layer
   calls, and reports the per-layer metrics.  --setup-only 1 only sets
   up and prints the set-up time: the untraced run starts itself that
   way between passes, for setup_s. *)

let now_ns = Routes.now_ns
let s_of_ns ns = ns /. 1e9

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  git_rev : string;
  setup_only : bool;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload W --seed N --seconds S --trace 0|1 \
     [--git-rev REV] [--setup-only 1]";
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let opt k = Hashtbl.find_opt tbl k in
  let o =
    { workload = get "workload";
      seed = int "seed";
      seconds = float_of_int (int "seconds");
      trace = int "trace" = 1;
      git_rev = Option.value (opt "git-rev") ~default:"unknown";
      setup_only = opt "setup-only" = Some "1" }
  in
  if not (List.mem o.workload Gen.workloads) || o.seconds <= 0. then usage ();
  o

(* ------------------------------------------------------------------ *)
(* Statistics and JSON                                                 *)
(* ------------------------------------------------------------------ *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Mean of the samples left after dropping the fastest and the slowest
   tenth (at least one of each from four samples on).  Unlike a median it
   does not snap to whichever host speed held for most of the run, and
   the trim keeps out a pass stalled by another process. *)
let trimmed_mean l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  let k = if n < 4 then 0 else max 1 (n / 10) in
  let sum = ref 0. in
  for i = k to n - 1 - k do
    sum := !sum +. a.(i)
  done;
  !sum /. float_of_int (n - (2 * k))

(* Nearest-rank percentile. *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let json_string s = Printf.sprintf "%S" s

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.12g" x

let metric (name, unit_, value) =
  (name, json_obj [ ("value", json_num value); ("unit", json_string unit_) ])

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let cost_hint (it : Gen.item) =
  match it.Gen.payload with
  | Gen.Lineage { db; _ } -> List.length db.Pdb.facts
  | Gen.Cnf { text; _ } | Gen.Circ { text; _ } -> String.length text

(* Warm-up: the cheapest item of each family once through the facade,
   ties broken by label so that the item order drawn by the seed does
   not pick it. *)
let warm_up items =
  let key it = (cost_hint it, it.Gen.label) in
  let cheapest = Hashtbl.create 8 in
  List.iter
    (fun it ->
      match Hashtbl.find_opt cheapest it.Gen.family with
      | Some best when key best <= key it -> ()
      | _ -> Hashtbl.replace cheapest it.Gen.family it)
    items;
  Hashtbl.iter
    (fun _ it -> try ignore (Routes.facade it) with _ -> ())
    cheapest

(* The set-up: input generation plus warm-up, timed from the clock
   reading Process_start took while the libraries were initialised, so
   that their initialisation and every first-call cost counts. *)
let setup o =
  let items = Array.of_list (Gen.items o.workload o.seed) in
  warm_up (Array.to_list items);
  (items, s_of_ns (now_ns () -. Int64.to_float Process_start.ns))

(* The set-up of a fresh process: this program with --setup-only 1 on
   the same workload and seed, which prints its set-up time. *)
let cold_setup o =
  let args =
    [| Sys.executable_name; "--workload"; o.workload; "--seed";
       string_of_int o.seed; "--seconds"; "1"; "--trace"; "0";
       "--setup-only"; "1" |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, float_of_string_opt line) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith "bench: the --setup-only process failed"

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* Whole passes over the fixed list until the next one would overrun
   [seconds] (at least [min_passes]); the budget counts everything done
   between passes too.  [run_pass k] runs pass [k].  Returns the number
   of passes. *)
let passes ?(min_passes = 1) o run_pass =
  let budget = o.seconds *. 1e9 in
  let t0 = now_ns () in
  let rec go k =
    run_pass k;
    let k = k + 1 in
    let elapsed = now_ns () -. t0 in
    if k < min_passes || elapsed +. (elapsed /. float_of_int k) <= budget then
      go k
    else k
  in
  go 0

let report_failure (it : Gen.item) why =
  Printf.eprintf "FAIL %s [%s]: %s\n%!" it.Gen.label it.Gen.family why

(* ------------------------------------------------------------------ *)
(* Untraced run: end-to-end metrics                                    *)
(* ------------------------------------------------------------------ *)

let family_shares items lat_by_item =
  let tbl = Hashtbl.create 8 in
  Array.iteri
    (fun i it ->
      let prev = Option.value (Hashtbl.find_opt tbl it.Gen.family) ~default:0. in
      Hashtbl.replace tbl it.Gen.family (prev +. lat_by_item.(i)))
    items;
  let total = Array.fold_left ( +. ) 0. lat_by_item in
  Hashtbl.fold (fun f t acc -> (f, t /. total) :: acc) tbl []
  |> List.sort compare

(* Every item runs once per pass; its latency is the trimmed mean over
   the passes (see [trimmed_mean]).  p50 and p90 are taken over the
   items, and items_per_s is the closed-loop rate those latencies give.
   setup_s is the median of this process's set-up and of one fresh
   --setup-only process started after every pass: each sample is a cold
   start, and they are spread over the run because the host's speed
   shifts for seconds at a time (five back-to-back samples gave medians
   of 23 and 37 ms in two runs of lineage-prob). *)
let end_to_end o items own_setup =
  let setups = ref [ own_setup ] in
  let n = Array.length items in
  let outcomes = Array.make n [] in
  let lats = Array.make n [] in
  let pass_walls = ref [] in
  let run_pass _ =
    let t_pass = now_ns () in
    Array.iteri
      (fun i it ->
        let t0 = now_ns () in
        let out = Verdict.attempt (fun () -> Routes.facade it) in
        lats.(i) <- (now_ns () -. t0) :: lats.(i);
        outcomes.(i) <- out :: outcomes.(i))
      items;
    pass_walls := (now_ns () -. t_pass) :: !pass_walls;
    setups := cold_setup o :: !setups
  in
  let npasses = passes o run_pass in
  let pass_walls = List.rev !pass_walls in
  let wall_ns = List.fold_left ( +. ) 0. pass_walls in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6
  in
  let t_oracle = now_ns () in
  let oracle = Verdict.oracle_answers items in
  let oracle_s = s_of_ns (now_ns () -. t_oracle) in
  let attempted, failed = Verdict.check items oracle outcomes report_failure in
  let output_size =
    Array.fold_left
      (fun s outs ->
        match List.rev outs with Ok a :: _ -> s + a.Routes.size | _ -> s)
      0 outcomes
  in
  let item_lat = Array.map trimmed_mean lats in
  let total = Array.fold_left ( +. ) 0. item_lat in
  let sorted = Array.copy item_lat in
  Array.sort compare sorted;
  let ms ns = ns /. 1e6 in
  let metrics =
    [ ("setup_s", "s", median !setups);
      ("items_per_s", "1/s", float_of_int n /. s_of_ns total);
      ("latency_p50_ms", "ms", ms (percentile sorted 0.50));
      ("latency_p90_ms", "ms", ms (percentile sorted 0.90));
      ("peak_heap_mb", "MB", heap_mb);
      ("output_size", "nodes", float_of_int output_size) ]
  in
  let info =
    [ ("passes", string_of_int npasses);
      ("setup_samples_s", "[" ^ String.concat ", " (List.map json_num (List.rev !setups)) ^ "]");
      ("oracle_s", json_num oracle_s);
      ("measured_s", json_num (s_of_ns wall_ns));
      ( "raw_items_per_s",
        json_num (float_of_int (npasses * n) /. s_of_ns wall_ns) );
      ( "pass_items_per_s",
        "[" ^ String.concat ", "
          (List.map (fun w -> Printf.sprintf "%.2f" (float_of_int n /. s_of_ns w)) pass_walls)
        ^ "]" );
      ("latency_samples", string_of_int n);
      ( "samples_beyond_p90",
        string_of_int (n - int_of_float (ceil (0.9 *. float_of_int n))) );
      ( "family_time_share",
        json_obj
          (List.map (fun (f, s) -> (f, json_num s)) (family_shares items item_lat)) ) ]
  in
  (attempted, failed, metrics, info)

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                       *)
(* ------------------------------------------------------------------ *)

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let per_layer o items =
  let n = Array.length items in
  let outcomes = Array.make n [] in
  let mismatches = ref 0 in
  let accs = ref [] and untraced = ref [] in
  let run_pass k =
    let a = Routes.acc () in
    let plain = ref 0. in
    Array.iteri
      (fun i it ->
        let facade () =
          let t0 = now_ns () in
          let out = Verdict.attempt (fun () -> Routes.facade it) in
          plain := !plain +. (now_ns () -. t0);
          out
        in
        let traced () = Verdict.attempt (fun () -> Routes.traced a it) in
        (* Alternate which side runs first, so neither always finds the
           other's warm caches. *)
        let f, t =
          if k mod 2 = 0 then
            let f = facade () in
            (f, traced ())
          else
            let t = traced () in
            (facade (), t)
        in
        outcomes.(i) <- f :: outcomes.(i);
        match (f, t) with
        | Ok fa, Ok ta
          when Oracle.value_equal fa.Routes.value ta.Routes.value
               && fa.Routes.size = ta.Routes.size -> ()
        | _, Error e ->
          incr mismatches;
          report_failure it ("traced chain raised " ^ e)
        | Ok fa, Ok ta ->
          incr mismatches;
          report_failure it
            (Printf.sprintf "traced chain gave %s (size %d), facade %s (size %d)"
               (Oracle.value_to_string ta.Routes.value) ta.Routes.size
               (Oracle.value_to_string fa.Routes.value) fa.Routes.size)
        | Error _, Ok _ -> ())
      items;
    accs := a :: !accs;
    untraced := !plain :: !untraced
  in
  (* Two passes at least, so that the exact counts can be compared. *)
  let npasses = passes ~min_passes:2 o run_pass in
  let oracle = Verdict.oracle_answers items in
  let attempted, failed = Verdict.check items oracle outcomes report_failure in
  let accs = List.rev !accs and untraced = List.rev !untraced in
  let a0 = List.hd accs in
  let repeat = List.for_all (fun a -> Routes.counts a = Routes.counts a0) accs in
  if not repeat then
    prerr_endline "FAIL: the exact apply counters differ between passes";
  let med f = median (List.map f accs) in
  let busy l = med (fun a -> s_of_ns a.Routes.busy_ns.(l)) in
  let layer_sum a = Array.fold_left ( +. ) 0. a.Routes.busy_ns in
  let overhead =
    median
      (List.map2 (fun a u -> (a.Routes.wall_ns -. u) /. u) accs untraced)
  in
  let metrics =
    [ ("input.busy_s", "s", busy Routes.input);
      ("preprocess.busy_s", "s", busy Routes.preprocess);
      ("preprocess.forced_vars", "count", float_of_int a0.Routes.forced_vars);
      ("preprocess.components", "count", float_of_int a0.Routes.components);
      ("decompose.busy_s", "s", busy Routes.decompose);
      ("decompose.width_max", "width", float_of_int a0.Routes.width_max);
      ("decompose.tseitin_wins", "count", float_of_int a0.Routes.tseitin_wins);
      ("vtree.busy_s", "s", busy Routes.vtree);
      ("apply.busy_s", "s", busy Routes.apply);
      ("apply.nodes_allocated", "count", float_of_int a0.Routes.nodes_allocated);
      ("apply.live_nodes", "count", float_of_int a0.Routes.live_nodes);
      ( "apply.alloc_per_live", "ratio",
        ratio a0.Routes.nodes_allocated a0.Routes.live_nodes );
      ( "apply.unique_hit_rate", "ratio",
        ratio a0.Routes.unique_hits a0.Routes.unique_lookups );
      ( "apply.and_cache_hit_rate", "ratio",
        ratio a0.Routes.and_hits a0.Routes.and_lookups );
      ( "apply.or_cache_hit_rate", "ratio",
        ratio a0.Routes.or_hits a0.Routes.or_lookups );
      ("apply.compactions", "count", float_of_int a0.Routes.compactions);
      ("cnf_component.busy_s", "s", busy Routes.cnf_component);
      ("minimize.busy_s", "s", busy Routes.minimize);
      ("minimize.steps", "count", float_of_int a0.Routes.minimize_steps);
      ( "minimize.size_ratio", "ratio",
        ratio a0.Routes.size_after a0.Routes.size_before );
      ("query.busy_s", "s", busy Routes.query);
      ( "pipeline.other_s", "s",
        med (fun a -> s_of_ns (a.Routes.wall_ns -. layer_sum a)) );
      ("trace.overhead_frac", "ratio", overhead);
      ("trace.traced_wall_s", "s", med (fun a -> s_of_ns a.Routes.wall_ns));
      ("trace.untraced_wall_s", "s", s_of_ns (median untraced)) ]
  in
  let info =
    [ ("passes", string_of_int npasses);
      ("route_mismatches", string_of_int !mismatches);
      ("counts_repeat_across_passes", string_of_bool repeat);
      ( "layer_share_of_traced_wall",
        json_obj
          (Array.to_list
             (Array.mapi
                (fun l name ->
                  (name, json_num (busy l /. med (fun a -> s_of_ns a.Routes.wall_ns))))
                Routes.layers)) ) ]
  in
  (* Attempts: the facade runs, the traced runs, and the repeat check. *)
  ( attempted + (npasses * n) + 1,
    failed + !mismatches + (if repeat then 0 else 1),
    metrics,
    info )

(* ------------------------------------------------------------------ *)

let () =
  let o = parse_args () in
  let items, setup_s = setup o in
  if o.setup_only then begin
    print_endline (json_num setup_s);
    exit 0
  end;
  let attempted, failed, metrics, info =
    if o.trace then per_layer o items else end_to_end o items setup_s
  in
  let meta =
    [ ("workload", json_string o.workload);
      ("seed", string_of_int o.seed);
      ("seconds", json_num o.seconds);
      ("trace", string_of_bool o.trace);
      ("items", string_of_int (Array.length items));
      ("load", json_string "closed loop, 1 client, 1 item at a time");
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("domains", string_of_int (Obs.Worker.default_domains ()));
      ( "CTWSDD_DOMAINS",
        json_string (Option.value (Sys.getenv_opt "CTWSDD_DOMAINS") ~default:"") );
      ("ocaml", json_string Sys.ocaml_version);
      ("git_rev", json_string o.git_rev);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ("fail_frac", json_num (float_of_int failed /. float_of_int attempted)) ]
    @ info
  in
  List.iter
    (fun (name, unit_, v) -> Printf.printf "%-28s %14s %s\n" name (json_num v) unit_)
    metrics;
  Printf.printf "meta %s\n" (json_obj meta);
  print_endline
    (json_obj
       [ ("correct", string_of_bool (failed = 0));
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", json_obj (List.map metric metrics)) ])
