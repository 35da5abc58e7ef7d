(* The Extractocol benchmark: three corpus workloads run in-process through
   the library's public API.

     main.exe --workload table1|gen1000-cold|gen1000-warm
              [--seed N] [--seconds S] [--trace 0|1] [--size full|small]
     main.exe --self-test BENCHMARK.json

   With --trace 0 it sets up, then repeats timed passes over the
   workload's corpus for S seconds and prints the end-to-end rows.  With
   --trace 1 it makes untraced passes and two traced passes that call
   each layer from outside, and prints the per-layer rows.  Every app
   result is checked against the oracle (Oracle).  The last line of
   standard output is one JSON object: correct, attempted, failed and the
   metrics, each with its unit.  NOTES.md explains the workloads and the
   metrics.

   The generated workloads set up in child processes of this executable
   (see [orchestrate]): [--fill DIR] is one set-up, and [--setup-s S
   [--cache DIR]] is the run that measures after them. *)

module Runner = Extr_eval.Runner
module Corpus = Extr_corpus.Corpus
module Metrics = Extr_telemetry.Metrics

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

type workload = {
  w_name : string;
  w_gen : bool;  (** the seeded generated corpus, else Table 1 *)
  w_warm : bool;  (** every app is served from a cache set-up filled *)
  w_jobs : int;
}

let workloads =
  [
    { w_name = "table1"; w_gen = false; w_warm = false; w_jobs = 1 };
    { w_name = "gen1000-cold"; w_gen = true; w_warm = false; w_jobs = 2 };
    { w_name = "gen1000-warm"; w_gen = true; w_warm = true; w_jobs = 2 };
  ]

type config = {
  seed : int;
  seconds : float;
  small : bool;  (** the self-test size: a few apps, seconds per run *)
}

let gen_count cfg = if cfg.small then 40 else 1000

(* Fresh entries every time: codegen is lazy per entry, and an entry
   forced in this process would skip codegen in every later pass. *)
let corpus w cfg () =
  if w.w_gen then Corpus.generated ~seed:cfg.seed ~count:(gen_count cfg)
  else
    (* What [extractocol --all] runs: the case studies, then Table 1. *)
    let all = Corpus.case_studies () @ Corpus.table1 () in
    if cfg.small then List.filteri (fun i _ -> i < 12) all else all

let options w cfg ~journal ~cache =
  {
    Runner.default_options with
    Runner.ro_jobs = w.w_jobs;
    ro_journal = journal;
    ro_cache_dir = cache;
    ro_corpus_tag =
      (if w.w_gen then
         Some (Printf.sprintf "gen=%d:%d" cfg.seed (gen_count cfg))
       else None);
  }

(* ------------------------------------------------------------------ *)
(* Untraced passes                                                    *)
(* ------------------------------------------------------------------ *)

type pass = {
  p_wall : float;
  p_self_cpu : float;  (** this process *)
  p_children_cpu : float;  (** reaped children: the pool's workers *)
  p_gaps : float list;  (** seconds between consecutive on_result calls *)
  p_failed : int;
  p_apps : int;
}

(* One [Runner.run] over freshly built entries; building them is timed,
   as it is in a CLI run.  Returns the results too, for the traced run's
   byte-identity reference. *)
let run_pass ~make ~options ~expected ~cached =
  let gaps = ref [] in
  let self0, children0 = Host.cpu_s () in
  let t0 = Host.now () in
  let last = ref t0 in
  let on_result _ =
    let t = Host.now () in
    gaps := (t -. !last) :: !gaps;
    last := t
  in
  let run =
    match Runner.run ~on_result options (make ()) with
    | Ok run -> run
    | Error msg -> failwith ("Runner.run: " ^ msg)
  in
  let wall = Host.now () -. t0 in
  let self1, children1 = Host.cpu_s () in
  let results = run.Runner.rn_results in
  ( {
      p_wall = wall;
      p_self_cpu = self1 -. self0;
      p_children_cpu = children1 -. children0;
      p_gaps = !gaps;
      p_failed = Oracle.failures ~cached expected results;
      p_apps = List.length expected;
    },
    results )

let cpu p = p.p_self_cpu +. p.p_children_cpu

(* What set-up leaves for the timed passes. *)
type state = {
  st_expected : Oracle.expected list;
  st_cache : string option;  (** the filled cache of gen1000-warm *)
  st_listing : (string * int * float) list;  (** that cache's files *)
}

let inputs w cfg ~cache =
  {
    st_expected = List.map Oracle.expected (corpus w cfg ());
    st_cache = cache;
    st_listing = Option.fold ~none:[] ~some:Host.listing cache;
  }

(* One pass of the workload in a fresh scratch directory (removed
   untimed): gen passes get a fresh journal, gen1000-cold also a fresh
   cache, gen1000-warm the cache set-up filled.  [jobs] overrides the
   workload's parallelism. *)
let workload_pass ?jobs w cfg st =
  let dir = Host.fresh_dir "pass" in
  let journal =
    if w.w_gen then Some (Filename.concat dir "journal.jsonl") else None
  in
  let cache =
    if w.w_warm then st.st_cache
    else if w.w_gen then Some (Filename.concat dir "cache")
    else None
  in
  let options = options w cfg ~journal ~cache in
  let p, results =
    run_pass ~make:(corpus w cfg)
      ~options:{ options with Runner.ro_jobs = Option.value jobs ~default:w.w_jobs }
      ~expected:st.st_expected ~cached:w.w_warm
  in
  Host.remove_tree dir;
  (* A warm pass must be all hits and must not write the cache. *)
  match st.st_cache with
  | Some c when Host.listing c <> st.st_listing ->
      print_endline "warm pass wrote the cache";
      ({ p with p_failed = p.p_apps }, results)
  | _ -> (p, results)

(* ------------------------------------------------------------------ *)
(* Set-up                                                             *)
(* ------------------------------------------------------------------ *)

let setup_reps = 3

(* Linear interpolation between closest ranks. *)
let quantile q l =
  let a = Array.of_list (List.sort Float.compare l) in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* table1 sets up in-process: build the inputs, then one full pass as a
   warm-up.  Returns the median time of [setup_reps] set-ups. *)
let setup_in_process w cfg =
  let setups =
    List.init setup_reps (fun _ ->
        let t0 = Host.now () in
        let st = inputs w cfg ~cache:None in
        let p, _ = workload_pass w cfg st in
        if p.p_failed > 0 then failwith "set-up pass failed the oracle";
        (Host.now () -. t0, st))
  in
  (median (List.map fst setups), snd (List.hd setups))

(* One set-up of a generated workload, as its own process: a cold jobs-2
   pass over the corpus fills DIR/cache.  Exits 1 if the pass fails the
   oracle. *)
let fill w cfg dir =
  let st = inputs w cfg ~cache:None in
  let p, _ =
    run_pass ~make:(corpus w cfg)
      ~options:
        (options w cfg
           ~journal:(Some (Filename.concat dir "journal.jsonl"))
           ~cache:(Some (Filename.concat dir "cache")))
      ~expected:st.st_expected ~cached:false
  in
  Printf.printf "set-up: wall %.3fs cpu %.3fs failed %d/%d\n%!" p.p_wall (cpu p)
    p.p_failed p.p_apps;
  exit (if p.p_failed = 0 then 0 else 1)

let size_name cfg = if cfg.small then "small" else "full"

(* The generated workloads set up in child processes, so the process
   that measures never waits for the set-up's pool workers: Linux folds
   the peak RSS of every reaped descendant into RUSAGE_CHILDREN, and the
   fill's analysing workers would mask what a warm pass uses.  Each
   set-up is one [--fill] child, timed from spawn to exit.  The measuring
   child gets the median set-up time and, for gen1000-warm, the last
   fill's cache; gen1000-cold discards it.  Returns the measuring child's
   exit code. *)
let orchestrate w cfg ~trace =
  let args =
    [ "--workload"; w.w_name; "--seed"; string_of_int cfg.seed;
      "--size"; size_name cfg ]
  in
  let fills =
    List.init (if trace then 1 else setup_reps) (fun _ ->
        let dir = Host.fresh_dir "fill" in
        let t0 = Host.now () in
        if Host.run_self (args @ [ "--fill"; dir ]) <> 0 then
          failwith "set-up failed";
        (Host.now () -. t0, dir))
  in
  let dirs = List.map snd fills in
  let last = List.nth dirs (List.length dirs - 1) in
  List.iter (fun d -> if d <> last || not w.w_warm then Host.remove_tree d) dirs;
  Host.run_self
    (args
    @ [ "--seconds"; Printf.sprintf "%.17g" cfg.seconds;
        "--trace"; (if trace then "1" else "0");
        "--setup-s"; Printf.sprintf "%.17g" (median (List.map fst fills)) ]
    @ if w.w_warm then [ "--cache"; Filename.concat last "cache" ] else [])

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

type row = { name : string; unit_ : string; value : float }

let row name unit_ value = { name; unit_; value }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~correct ~attempted ~failed rows =
  List.iter
    (fun r -> Printf.printf "  %-30s %16.6f %s\n" r.name r.value r.unit_)
    rows;
  let metrics =
    List.map
      (fun r ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" r.name
          (json_number r.value) r.unit_)
      rows
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " metrics)

(* ------------------------------------------------------------------ *)
(* End-to-end run (--trace 0)                                         *)
(* ------------------------------------------------------------------ *)

(* Rows only table1 prints: per-app latency needs a sequential run. *)
let latency_units = [ ("app_p50_ms", "ms"); ("app_p90_ms", "ms") ]

(* p90 needs at least this many samples to have ten beyond it. *)
let min_latency_samples = 100

let end_to_end w cfg ~setup_s st =
  let latency = w.w_jobs = 1 in
  let samples passes = List.fold_left (fun n p -> n + List.length p.p_gaps) 0 passes in
  let start = Host.now () in
  let rec loop acc =
    if
      Host.now () -. start >= cfg.seconds
      && ((not latency) || samples acc >= min_latency_samples)
    then List.rev acc
    else
      let p, _ = workload_pass w cfg st in
      Printf.printf "pass %d: wall %.3fs cpu %.3fs failed %d/%d\n%!"
        (List.length acc + 1) p.p_wall (cpu p) p.p_failed p.p_apps;
      loop (p :: acc)
  in
  let passes = loop [] in
  let attempted = List.fold_left (fun n p -> n + p.p_apps) 0 passes in
  let failed = List.fold_left (fun n p -> n + p.p_failed) 0 passes in
  Printf.printf "%s: %d passes, %d apps checked\n" w.w_name (List.length passes)
    attempted;
  let latency_rows =
    if not latency then []
    else
      let gaps_ms = List.concat_map (fun p -> List.map (( *. ) 1e3) p.p_gaps) passes in
      let p90 = quantile 0.9 gaps_ms in
      Printf.printf "%d latency samples (%d beyond p90)\n" (List.length gaps_ms)
        (List.length (List.filter (fun g -> g > p90) gaps_ms));
      List.map2
        (fun (n, u) v -> row n u v)
        latency_units
        [ median gaps_ms; p90 ]
  in
  let rows =
    [
      row "wall_s" "s" (median (List.map (fun p -> p.p_wall) passes));
      row "cpu_s" "s" (median (List.map cpu passes));
      row "peak_rss_mb" "MB"
        (Float.max (Host.self_peak_rss_mb ()) (Host.children_peak_rss_mb ()));
      row "setup_s" "s" setup_s;
      row "exact_ratio" "ratio"
        (float_of_int (attempted - failed) /. float_of_int (max 1 attempted));
    ]
    @ latency_rows
  in
  print_result ~correct:(failed = 0) ~attempted ~failed rows

(* ------------------------------------------------------------------ *)
(* Traced run (--trace 1)                                             *)
(* ------------------------------------------------------------------ *)

(* Counts that must repeat exactly between the two traced passes. *)
let work_counters =
  [
    "taint.backward.steps"; "taint.backward.facts"; "taint.forward.steps";
    "taint.forward.facts"; "interp.statements"; "interp.raw_txs";
    "budget.steps"; "slicing.dps"; "slicing.slice_stmts";
    "slicing.augmented_stmts"; "pairing.pairs"; "cfg.methods_resolved";
    "corpus.stmts"; "report.txs"; "report.bytes";
  ]

type traced_pass = {
  tp_ctx : Layers.ctx;
  tp_wall : float;
  tp_self : (string, float) Hashtbl.t;  (** self seconds per span name *)
  tp_mismatches : int;  (** reports that differ from the untraced run's *)
  tp_alloc_words : float;
  tp_major : int;
  tp_top_heap_words : int;
}

let traced_pass w cfg tr ~root ~index ~reference ~cache =
  Metrics.set_enabled Metrics.default true;
  Metrics.reset Metrics.default;
  let ctx = Layers.create tr in
  let dir = Host.fresh_dir "traced" in
  let cache =
    if w.w_warm then cache
    else if w.w_gen then Some (Filename.concat dir "cache")
    else None
  in
  let opts = options w cfg ~journal:None ~cache in
  let store = Option.map (fun d -> Extr_store.Store.open_ ~dir:d ()) cache in
  let journal =
    if w.w_gen then
      Some
        (Extr_resilience.Journal.create
           ~path:(Filename.concat dir "journal.jsonl")
           ~config:(Runner.journal_fingerprint opts) ())
    else None
  in
  let gc0 = Gc.quick_stat () in
  let t0 = Host.now () in
  let pass =
    Trace.open_ tr ~parent:root.Trace.sp_id ~pass:index
      (Printf.sprintf "pass %d" index)
  in
  let entries = Runner.identify (corpus w cfg ()) in
  let mismatches = ref 0 in
  List.iteri
    (fun i ((id, _) as entry) ->
      let data =
        Layers.app ctx ~pass ~app_id:(i + 1) ~options:opts ~cache:store ~journal
          entry
      in
      if data = None || Hashtbl.find_opt reference id <> data then
        incr mismatches)
    entries;
  Trace.close pass;
  let wall = Host.now () -. t0 in
  let gc1 = Gc.quick_stat () in
  Metrics.set_enabled Metrics.default false;
  Host.remove_tree dir;
  let words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  {
    tp_ctx = ctx;
    tp_wall = wall;
    tp_self = Trace.self_times tr ~pass:index;
    tp_mismatches = !mismatches;
    tp_alloc_words = words gc1 -. words gc0;
    tp_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    tp_top_heap_words = gc1.Gc.top_heap_words;
  }

let pool_units =
  [
    ("pool.coordinator_cpu_s", "s"); ("pool.worker_cpu_s", "s");
    ("pool.utilization", "ratio"); ("pool.dispatch_p50_us", "us");
    ("pool.idle_ms", "ms"); ("pool.worker_peak_rss_mb", "MB");
  ]

let pool_rows values = List.map2 (fun (n, u) v -> row n u v) pool_units values

(* The pool's own rows, from a real jobs-2 run with the registry on. *)
let pooled_pass w cfg st =
  Metrics.set_enabled Metrics.default true;
  Metrics.reset Metrics.default;
  let p, _ = workload_pass w cfg st in
  let dispatch_p50 =
    Option.bind
      (Metrics.find Metrics.default "pool.dispatch.latency_us")
      (fun s -> Metrics.percentile s 50.)
  in
  let idle_us =
    List.fold_left
      (fun acc (s : Metrics.sample) ->
        if s.Metrics.sa_name = "pool.worker.idle_us" then acc +. s.Metrics.sa_sum
        else acc)
      0.
      (Metrics.snapshot Metrics.default)
  in
  Metrics.set_enabled Metrics.default false;
  ( p,
    pool_rows
      [
        p.p_self_cpu;
        p.p_children_cpu;
        p.p_children_cpu /. (float_of_int w.w_jobs *. p.p_wall);
        Option.value ~default:0. dispatch_p50;
        idle_us /. 1e3;
        Host.children_peak_rss_mb ();
      ] )

(* Layer time rows: (row, span name). *)
let span_rows =
  [
    ("corpus.codegen_ms", "corpus.codegen");
    ("store.key_ms", "store.key");
    ("store.find_ms", "store.find");
    ("store.store_ms", "store.store");
    ("journal.append_ms", "journal.append");
    ("ir.load_ms", "ir.load");
    ("cfg.build_ms", "cfg.build");
    ("slicing.ms", "slicing.run");
    ("interp.ms", "interp.run");
    ("pairing.ms", "pairing.pair_disjoint");
    ("report.build_ms", "report.build");
    ("report.encode_ms", "report.encode");
  ]

(* Count rows, in the order they are printed. *)
let count_rows =
  [
    "corpus.stmts"; "store.hits"; "store.misses"; "store.bytes";
    "journal.appends"; "cfg.methods_resolved"; "slicing.dps";
    "slicing.slice_stmts"; "slicing.augmented_stmts"; "taint.backward.steps";
    "taint.backward.facts"; "taint.forward.steps"; "taint.forward.facts";
    "budget.steps"; "interp.statements"; "interp.raw_txs"; "pairing.pairs";
    "report.bytes"; "report.txs";
  ]

let count_unit = function "store.bytes" | "report.bytes" -> "bytes" | _ -> "count"

let traced w cfg st =
  (* The untraced run every traced report must match byte for byte. *)
  let untraced, results = workload_pass w cfg st in
  let reference = Hashtbl.create 1024 in
  List.iter
    (fun (r : Runner.app_result) ->
      Option.iter (Hashtbl.replace reference r.Runner.ar_app) r.Runner.ar_report_json)
    results;
  let pooled, pool =
    if w.w_jobs > 1 then
      let p, rows = pooled_pass w cfg st in
      (Some p, rows)
    else (None, pool_rows (List.map (fun _ -> 0.) pool_units))
  in
  let tr = Trace.create () in
  let root = Trace.open_ tr w.w_name in
  (* Each traced pass follows an untraced pass at jobs 1: the traced
     calls are sequential, so that is the path they are compared with,
     and alternating the two spreads host drift over both. *)
  let pairs =
    List.map
      (fun index ->
        let seq, _ = workload_pass ~jobs:1 w cfg st in
        let p = traced_pass w cfg tr ~root ~index ~reference ~cache:st.st_cache in
        Printf.printf "pass %d: untraced %.3fs, traced %.3fs, %d reports differ\n%!"
          index seq.p_wall p.tp_wall p.tp_mismatches;
        (seq, p))
      [ 1; 2 ]
  in
  Trace.close root;
  let passes = List.map snd pairs in
  let first = List.hd passes in
  let mean f =
    List.fold_left (fun acc p -> acc +. f p) 0. passes
    /. float_of_int (List.length passes)
  in
  let total name = Layers.total first.tp_ctx name in
  let repeat_ok =
    List.for_all
      (fun name ->
        List.for_all (fun p -> Layers.total p.tp_ctx name = total name) passes)
      work_counters
  in
  let mismatches = List.fold_left (fun n p -> n + p.tp_mismatches) 0 passes in
  let warm_ok = (not w.w_warm) || total "store.misses" = 0 in
  let checked = (untraced :: Option.to_list pooled) @ List.map fst pairs in
  let attempted =
    List.fold_left (fun n p -> n + p.p_apps) 0 checked
    + (List.length passes * List.length st.st_expected)
  in
  let failed =
    List.fold_left (fun n p -> n + p.p_failed) mismatches checked
  in
  if not repeat_ok then print_endline "work counters differ between the traced passes";
  if not warm_ok then print_endline "warm traced pass missed the cache";
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l in
  let rows =
    List.map
      (fun (name, span) ->
        row name "ms"
          (1e3
          *. mean (fun p -> Option.value ~default:0. (Hashtbl.find_opt p.tp_self span))))
      span_rows
    @ List.map (fun name -> row name (count_unit name) (float_of_int (total name))) count_rows
    @ [
        row "taint.backward.steps_per_fact" "ratio"
          (ratio (total "taint.backward.steps") (total "taint.backward.facts"));
      ]
    @ pool
    @ [
        row "gc.alloc_mwords" "Mwords" (mean (fun p -> p.tp_alloc_words /. 1e6));
        row "gc.major_collections" "count" (mean (fun p -> float_of_int p.tp_major));
        row "gc.top_heap_mb" "MB"
          (float_of_int (first.tp_top_heap_words * (Sys.word_size / 8)) /. 1048576.);
        row "trace.overhead_ratio" "ratio"
          (sum (fun (_, p) -> p.tp_wall) pairs /. sum (fun (s, _) -> s.p_wall) pairs);
      ]
  in
  Host.ensure_dir Host.output_dir;
  let path = Filename.concat Host.output_dir ("trace-" ^ w.w_name ^ ".json") in
  Trace.write tr ~path
    ~meta:
      [
        ("workload", w.w_name); ("seed", string_of_int cfg.seed);
        ("host", Host.describe ());
      ];
  Printf.printf "spans written to %s\n" path;
  print_result ~correct:(failed = 0 && repeat_ok && warm_ok) ~attempted ~failed
    rows

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload table1|gen1000-cold|gen1000-warm [--seed N] \
     [--seconds S] [--trace 0|1] [--size full|small]\n\
    \       main.exe --self-test BENCHMARK.json";
  exit 2

let () =
  let workload = ref None
  and seed = ref 1
  and seconds = ref 10.
  and trace = ref false
  and small = ref false
  and self_test = ref None
  and fill_dir = ref None
  and setup_s = ref None
  and cache = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := List.find_opt (fun w -> w.w_name = v) workloads;
        if !workload = None then usage ();
        parse rest
    | "--seed" :: v :: rest ->
        seed := (match int_of_string_opt v with Some n -> n | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := (match float_of_string_opt v with Some s -> s | None -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> false | "1" -> true | _ -> usage ());
        parse rest
    | "--size" :: v :: rest ->
        small := (match v with "full" -> false | "small" -> true | _ -> usage ());
        parse rest
    | "--self-test" :: path :: rest ->
        self_test := Some path;
        parse rest
    | "--fill" :: dir :: rest ->
        fill_dir := Some dir;
        parse rest
    | "--setup-s" :: v :: rest ->
        setup_s := (match float_of_string_opt v with Some s -> Some s | None -> usage ());
        parse rest
    | "--cache" :: dir :: rest ->
        cache := Some dir;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  Option.iter
    (fun benchmark_json ->
      exit
        (Selftest.run ~exe:Sys.executable_name ~benchmark_json ~extra:(function
          | "table1" -> latency_units
          | _ -> [])))
    !self_test;
  match !workload with
  | None -> usage ()
  | Some w -> (
      let cfg = { seed = !seed; seconds = !seconds; small = !small } in
      match (!fill_dir, !setup_s) with
      | Some dir, _ -> fill w cfg dir
      | None, None when w.w_gen ->
          Printf.printf "host: %s\nworkload: %s seed=%d size=%s: %d set-ups\n%!"
            (Host.describe ()) w.w_name cfg.seed (size_name cfg)
            (if !trace then 1 else setup_reps);
          exit (orchestrate w cfg ~trace:!trace)
      | None, fills ->
          Printf.printf "host: %s\nworkload: %s seed=%d seconds=%g trace=%b size=%s jobs=%d\n%!"
            (Host.describe ()) w.w_name cfg.seed cfg.seconds !trace (size_name cfg)
            w.w_jobs;
          if !trace then traced w cfg (inputs w cfg ~cache:!cache)
          else
            let setup_s, st =
              match fills with
              | Some s ->
                  (* Generated: the set-up children's median, plus
                     building the inputs here. *)
                  let t0 = Host.now () in
                  let st = inputs w cfg ~cache:!cache in
                  (s +. (Host.now () -. t0), st)
              | None -> setup_in_process w cfg
            in
            end_to_end w cfg ~setup_s st)
