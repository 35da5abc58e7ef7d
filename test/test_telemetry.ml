(* Telemetry subsystem tests: deterministic clocks, span recording,
   metrics aggregation, exporter output shape, and the end-to-end
   pipeline instrumentation (one span per phase, expected series). *)

module Clock = Extr_telemetry.Clock
module Span = Extr_telemetry.Span
module Metrics = Extr_telemetry.Metrics
module Export = Extr_telemetry.Export
module Json = Extr_httpmodel.Json
module Pipeline = Extr_extractocol.Pipeline
module Corpus = Extr_corpus.Corpus

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Clocks                                                             *)
(* ------------------------------------------------------------------ *)

let test_fake_clock () =
  let c = Clock.fake ~start:10.0 ~step:2.5 () in
  check (Alcotest.float 0.0) "first read" 10.0 (c ());
  check (Alcotest.float 0.0) "second read" 12.5 (c ());
  check (Alcotest.float 0.0) "third read" 15.0 (c ())

let test_manual_clock () =
  let c, advance = Clock.manual ~start:100.0 () in
  check (Alcotest.float 0.0) "stands still" 100.0 (c ());
  check (Alcotest.float 0.0) "still still" 100.0 (c ());
  advance 3.0;
  check (Alcotest.float 0.0) "after advance" 103.0 (c ())

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

let test_span_disabled () =
  let t = Span.create ~clock:(Clock.fake ()) () in
  let r = Span.with_span ~tracer:t "outer" (fun () -> 42) in
  check Alcotest.int "thunk result" 42 r;
  check Alcotest.int "nothing recorded" 0 (List.length (Span.spans t))

let test_span_nesting () =
  (* Fake clock ticks once per read: outer reads at t=0, inner at 1/2,
     outer close at 3 — so inner lasts 1s, outer 3s, and the recorded
     order is begin order even though inner completes first. *)
  let t = Span.create ~clock:(Clock.fake ()) ~enabled:true () in
  Span.with_span ~tracer:t "outer" (fun () ->
      Span.with_span ~tracer:t ~args:[ ("k", "v") ] "inner" (fun () -> ()));
  match Span.spans t with
  | [ outer; inner ] ->
      check Alcotest.string "outer first" "outer" outer.Span.sp_name;
      check Alcotest.string "inner second" "inner" inner.Span.sp_name;
      check Alcotest.int "outer depth" 0 outer.Span.sp_depth;
      check Alcotest.int "inner depth" 1 inner.Span.sp_depth;
      check (Alcotest.float 0.0) "inner duration" 1.0 (Span.duration_s inner);
      check (Alcotest.float 0.0) "outer duration" 3.0 (Span.duration_s outer);
      check
        Alcotest.(list (pair string string))
        "args recorded"
        [ ("k", "v") ]
        inner.Span.sp_args
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_records_on_raise () =
  let t = Span.create ~clock:(Clock.fake ()) ~enabled:true () in
  (try Span.with_span ~tracer:t "boom" (fun () -> failwith "x") with
  | Failure _ -> ());
  check Alcotest.bool "span recorded despite raise" true
    (Span.find t "boom" <> None);
  (* Depth must be restored so later siblings are not mis-nested. *)
  Span.with_span ~tracer:t "after" (fun () -> ());
  check Alcotest.int "depth restored" 0
    (Option.get (Span.find t "after")).Span.sp_depth

let test_span_reset () =
  let t = Span.create ~clock:(Clock.fake ()) ~enabled:true () in
  Span.with_span ~tracer:t "a" (fun () -> ());
  Span.reset t;
  check Alcotest.int "cleared" 0 (List.length (Span.spans t));
  Span.with_span ~tracer:t "b" (fun () -> ());
  check Alcotest.int "seq restarts" 0 (Option.get (Span.find t "b")).Span.sp_seq

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let test_counter_aggregation () =
  let r = Metrics.create ~enabled:true () in
  let c = Metrics.counter ~registry:r "reqs" in
  Metrics.incr c;
  Metrics.incr c ~by:4;
  Metrics.incr c ~labels:[ ("app", "ted") ];
  check (Alcotest.float 0.0) "unlabelled series" 5.0 (Metrics.value r "reqs");
  check (Alcotest.float 0.0) "labelled series" 1.0
    (Metrics.value ~labels:[ ("app", "ted") ] r "reqs")

let test_label_order_irrelevant () =
  let r = Metrics.create ~enabled:true () in
  let c = Metrics.counter ~registry:r "reqs" in
  Metrics.incr c ~labels:[ ("a", "1"); ("b", "2") ];
  Metrics.incr c ~labels:[ ("b", "2"); ("a", "1") ];
  check (Alcotest.float 0.0) "same series either order" 2.0
    (Metrics.value ~labels:[ ("b", "2"); ("a", "1") ] r "reqs")

let test_gauge_last_wins () =
  let r = Metrics.create ~enabled:true () in
  let g = Metrics.gauge ~registry:r "elapsed" in
  Metrics.set g 1.5;
  Metrics.set g 2.5;
  check (Alcotest.float 0.0) "last value" 2.5 (Metrics.value r "elapsed")

let test_histogram_buckets () =
  let r = Metrics.create ~enabled:true () in
  let h = Metrics.histogram ~registry:r ~buckets:[ 1.0; 10.0 ] "sizes" in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 50.0 ];
  match Metrics.find r "sizes" with
  | None -> Alcotest.fail "histogram series missing"
  | Some s ->
      check Alcotest.int "count" 3 s.Metrics.sa_count;
      check (Alcotest.float 1e-9) "sum" 55.5 s.Metrics.sa_sum;
      (* Cumulative: le=1 holds 1, le=10 holds 2, +inf holds all 3. *)
      let counts = List.map snd s.Metrics.sa_buckets in
      check Alcotest.(list int) "cumulative buckets" [ 1; 2; 3 ] counts

let test_disabled_registry_noop () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "reqs" in
  Metrics.incr c ~by:100;
  check Alcotest.int "no series recorded" 0
    (List.length (Metrics.snapshot r))

let test_kind_mismatch_rejected () =
  let r = Metrics.create ~enabled:true () in
  ignore (Metrics.counter ~registry:r "dual");
  check Alcotest.bool "re-register as gauge raises" true
    (try
       ignore (Metrics.gauge ~registry:r "dual");
       false
     with Invalid_argument _ -> true)

let test_metrics_reset () =
  let r = Metrics.create ~enabled:true () in
  let c = Metrics.counter ~registry:r "reqs" in
  Metrics.incr c ~by:7;
  Metrics.reset r;
  check (Alcotest.float 0.0) "cleared" 0.0 (Metrics.value r "reqs");
  Metrics.incr c;
  check (Alcotest.float 0.0) "handle survives reset" 1.0 (Metrics.value r "reqs")

let render_samples samples =
  List.map
    (fun (s : Metrics.sample) ->
      Fmt.str "%s%a count=%d sum=%g buckets=%a" s.Metrics.sa_name
        Fmt.(Dump.list (Dump.pair string string))
        s.Metrics.sa_labels s.Metrics.sa_count s.Metrics.sa_sum
        Fmt.(Dump.list (Dump.pair float int))
        s.Metrics.sa_buckets)
    samples

let test_merge_samples () =
  (* A worker's per-task snapshot merged into a fresh registry must
     reproduce the worker's series exactly — counters, a labelled
     series, gauge last-wins and decumulated histogram buckets. *)
  let worker = Metrics.create ~enabled:true () in
  let c = Metrics.counter ~registry:worker "reqs" in
  Metrics.incr c ~by:3;
  Metrics.incr c ~labels:[ ("app", "ted") ];
  Metrics.set (Metrics.gauge ~registry:worker "elapsed") 2.5;
  let h = Metrics.histogram ~registry:worker ~buckets:[ 1.0; 10.0 ] "sizes" in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 50.0 ];
  let delta = Metrics.snapshot worker in
  let coord = Metrics.create ~enabled:true () in
  Metrics.merge_samples coord delta;
  check
    Alcotest.(list string)
    "merged registry snapshots identically" (render_samples delta)
    (render_samples (Metrics.snapshot coord));
  (* Merging a second worker's delta accumulates counts. *)
  Metrics.merge_samples coord delta;
  check (Alcotest.float 0.0) "counters add across merges" 6.0
    (Metrics.value coord "reqs");
  (match Metrics.find coord "sizes" with
  | Some s ->
      check Alcotest.int "histogram count adds" 6 s.Metrics.sa_count;
      check
        Alcotest.(list int)
        "cumulative buckets add" [ 2; 4; 6 ]
        (List.map snd s.Metrics.sa_buckets)
  | None -> Alcotest.fail "histogram series missing after merge");
  (* A disabled coordinator registry still accepts merges: the corpus
     pool must not lose worker samples when --metrics-out is off. *)
  let quiet = Metrics.create () in
  Metrics.merge_samples quiet delta;
  check (Alcotest.float 0.0) "merge bypasses the enabled flag" 3.0
    (Metrics.value quiet "reqs")

let test_gauge_merge_deterministic () =
  (* Regression: gauges used to merge last-wins, so the coordinator's
     merged value depended on worker completion order.  The policy is
     labelled max — merging two workers' deltas in either order must
     yield the same registry. *)
  let snap v =
    let w = Metrics.create ~enabled:true () in
    Metrics.set (Metrics.gauge ~registry:w "elapsed") v;
    Metrics.snapshot w
  in
  let merge order =
    let coord = Metrics.create ~enabled:true () in
    List.iter (Metrics.merge_samples coord) order;
    Metrics.value coord "elapsed"
  in
  let a = snap 2.5 and b = snap 7.0 in
  check (Alcotest.float 0.0) "a then b" 7.0 (merge [ a; b ]);
  check (Alcotest.float 0.0) "b then a" 7.0 (merge [ b; a ]);
  (* Negative gauges must not be clamped by the empty registry's 0. *)
  let n1 = snap (-3.0) and n2 = snap (-8.0) in
  check (Alcotest.float 0.0) "negative max" (-3.0) (merge [ n2; n1 ])

let test_merge_samples_edge_cases () =
  (* An empty snapshot (a worker that measured nothing, a shard that
     owned no apps) merges as a no-op, in either direction. *)
  let full = Metrics.create ~enabled:true () in
  Metrics.incr (Metrics.counter ~registry:full "reqs") ~by:5;
  let before = render_samples (Metrics.snapshot full) in
  Metrics.merge_samples full [];
  check
    Alcotest.(list string)
    "empty delta is a no-op" before
    (render_samples (Metrics.snapshot full));
  let empty = Metrics.create ~enabled:true () in
  Metrics.merge_samples empty (Metrics.snapshot full);
  check
    Alcotest.(list string)
    "merge into empty reproduces the source" before
    (render_samples (Metrics.snapshot empty));
  (* A zero-bucket histogram (only the +inf overflow slot) still counts
     and sums across merges. *)
  let w = Metrics.create ~enabled:true () in
  let h = Metrics.histogram ~registry:w ~buckets:[] "odd" in
  List.iter (Metrics.observe h) [ 1.0; 2.0 ];
  let delta = Metrics.snapshot w in
  let coord = Metrics.create ~enabled:true () in
  Metrics.merge_samples coord delta;
  Metrics.merge_samples coord delta;
  (match Metrics.find coord "odd" with
  | Some s ->
      check Alcotest.int "zero-bucket count adds" 4 s.Metrics.sa_count;
      check (Alcotest.float 1e-9) "zero-bucket sum adds" 6.0 s.Metrics.sa_sum;
      check
        Alcotest.(list int)
        "only the overflow slot" [ 4 ]
        (List.map snd s.Metrics.sa_buckets)
  | None -> Alcotest.fail "zero-bucket histogram missing after merge");
  (* Three-way associativity: (a+b)+c = a+(b+c) — the shard merge folds
     snapshots in CLI argument order, so grouping must not matter. *)
  let shard i =
    let w = Metrics.create ~enabled:true () in
    Metrics.incr (Metrics.counter ~registry:w "reqs") ~by:i;
    Metrics.set (Metrics.gauge ~registry:w "peak") (float_of_int (10 * i));
    let h = Metrics.histogram ~registry:w ~buckets:[ 1.0; 10.0 ] "lat" in
    List.iter (Metrics.observe h) [ 0.5 *. float_of_int i; 5.0; 50.0 ];
    Metrics.snapshot w
  in
  let a = shard 1 and b = shard 2 and c = shard 3 in
  let fold snaps =
    let r = Metrics.create ~enabled:true () in
    List.iter (Metrics.merge_samples r) snaps;
    render_samples (Metrics.snapshot r)
  in
  let via l =
    (* fold the first group into one snapshot, then merge the rest *)
    let r = Metrics.create ~enabled:true () in
    List.iter (Metrics.merge_samples r) l;
    Metrics.snapshot r
  in
  check
    Alcotest.(list string)
    "(a+b)+c = a+(b+c)"
    (fold [ via [ a; b ]; c ])
    (fold [ a; via [ b; c ] ])

let test_percentile () =
  let w = Metrics.create ~enabled:true () in
  let h =
    Metrics.histogram ~registry:w ~buckets:[ 10.0; 100.0; 1000.0 ] "lat"
  in
  (* 100 observations: 50 in (0,10], 40 in (10,100], 10 in (100,1000]. *)
  for _ = 1 to 50 do Metrics.observe h 5.0 done;
  for _ = 1 to 40 do Metrics.observe h 50.0 done;
  for _ = 1 to 10 do Metrics.observe h 500.0 done;
  match Metrics.find w "lat" with
  | None -> Alcotest.fail "series missing"
  | Some s ->
      (* Rank 50 is exactly the first bucket's cumulative count: linear
         interpolation lands on its upper bound. *)
      check (Alcotest.float 1e-9) "p50" 10.0
        (Option.get (Metrics.percentile s 50.0));
      check (Alcotest.float 1e-9) "p90" 100.0
        (Option.get (Metrics.percentile s 90.0));
      (* Halfway into the second bucket: 10 + (70-50)/40 * 90. *)
      check (Alcotest.float 1e-9) "p70 interpolates" 55.0
        (Option.get (Metrics.percentile s 70.0));
      check (Alcotest.float 1e-9) "p100 = max finite bound" 1000.0
        (Option.get (Metrics.percentile s 100.0));
      (* Overflow ranks clamp to the largest finite bound. *)
      let w2 = Metrics.create ~enabled:true () in
      let h2 = Metrics.histogram ~registry:w2 ~buckets:[ 10.0 ] "o" in
      Metrics.observe h2 99.0;
      let s2 = Option.get (Metrics.find w2 "o") in
      check (Alcotest.float 1e-9) "overflow clamps" 10.0
        (Option.get (Metrics.percentile s2 50.0));
      (* Non-histograms and empty series have no percentiles. *)
      let c = Metrics.counter ~registry:w "n" in
      Metrics.incr c;
      check Alcotest.bool "counter has none" true
        (Metrics.percentile (Option.get (Metrics.find w "n")) 50.0 = None)

let test_percentile_edges () =
  (* Empty histogram: registered, never observed — no percentile. *)
  let r = Metrics.create ~enabled:true () in
  let _ = Metrics.histogram ~registry:r ~buckets:[ 10.0 ] "empty" in
  (match Metrics.find r "empty" with
  | None -> ()  (* never observed: the series may not even exist *)
  | Some s ->
      check Alcotest.bool "empty histogram has no percentile" true
        (Metrics.percentile s 50.0 = None));
  (* Single finite bucket: every rank interpolates inside it. *)
  let h = Metrics.histogram ~registry:r ~buckets:[ 10.0 ] "one" in
  Metrics.observe h 5.0;
  Metrics.observe h 5.0;
  let s = Option.get (Metrics.find r "one") in
  check (Alcotest.float 1e-9) "p50 interpolates to mid-bucket" 5.0
    (Option.get (Metrics.percentile s 50.0));
  check (Alcotest.float 1e-9) "p100 is the bucket bound" 10.0
    (Option.get (Metrics.percentile s 100.0));
  (* Out-of-range quantiles clamp instead of crashing. *)
  check (Alcotest.float 1e-9) "q < 0 clamps to 0" 0.0
    (Option.get (Metrics.percentile s (-5.0)));
  check (Alcotest.float 1e-9) "q > 100 clamps to 100" 10.0
    (Option.get (Metrics.percentile s 150.0));
  (* All mass in the overflow bucket of a bucketless histogram: the
     largest finite bound is vacuously 0 — the estimate degrades to the
     documented lower bound, it must not raise or go negative. *)
  let h2 = Metrics.histogram ~registry:r ~buckets:[] "overflow" in
  Metrics.observe h2 99.0;
  let s2 = Option.get (Metrics.find r "overflow") in
  check (Alcotest.float 1e-9) "bucketless overflow clamps to 0" 0.0
    (Option.get (Metrics.percentile s2 50.0))

(* ------------------------------------------------------------------ *)
(* Span self time                                                     *)
(* ------------------------------------------------------------------ *)

let test_span_self_time () =
  (* Fake clock, one tick per read: a@0 { b@1 { c@2..3 } ..4 } ..5 —
     cumulative c=1, b=3, a=5; self c=1, b=2, a=2. *)
  let t = Span.create ~clock:(Clock.fake ()) ~enabled:true () in
  Span.with_span ~tracer:t "a" (fun () ->
      Span.with_span ~tracer:t "b" (fun () ->
          Span.with_span ~tracer:t "c" (fun () -> ())));
  let spans = Span.spans t in
  let stacked = Span.stacked spans in
  check Alcotest.int "one row per span" 3 (List.length stacked);
  List.iter
    (fun (path, sp, self) ->
      (* self + direct children's cumulative = own cumulative. *)
      let expected_path =
        match sp.Span.sp_name with
        | "a" -> [ "a" ]
        | "b" -> [ "a"; "b" ]
        | _ -> [ "a"; "b"; "c" ]
      in
      check Alcotest.(list string)
        (sp.Span.sp_name ^ " path is root-first")
        expected_path path;
      let children =
        List.filter
          (fun s -> s.Span.sp_depth = sp.Span.sp_depth + 1)
          spans
      in
      let child_sum =
        List.fold_left (fun acc s -> acc +. Span.duration_s s) 0.0 children
      in
      check (Alcotest.float 1e-9)
        (sp.Span.sp_name ^ ": self + children = cumulative")
        (Span.duration_s sp) (self +. child_sum))
    stacked;
  check (Alcotest.float 1e-9) "self_s a" 2.0
    (Span.self_s spans (Option.get (Span.find t "a")));
  check (Alcotest.float 1e-9) "self_s b" 2.0
    (Span.self_s spans (Option.get (Span.find t "b")));
  check (Alcotest.float 1e-9) "self_s c" 1.0
    (Span.self_s spans (Option.get (Span.find t "c")))

(* ------------------------------------------------------------------ *)
(* Exporters                                                          *)
(* ------------------------------------------------------------------ *)

(* A one-lane trace of [t]'s spans, parsed, without the lane's
   thread_name metadata record: the events its spans became. *)
let span_events t =
  match
    Json.member "traceEvents"
      (Json.of_string (Export.chrome_trace_lanes [ ("main", 1, Span.spans t) ]))
  with
  | Some (Json.List l) ->
      List.filter (fun ev -> Json.member "ph" ev <> Some (Json.Str "M")) l
  | _ -> Alcotest.fail "no traceEvents array"

let test_chrome_trace_valid_json () =
  let t = Span.create ~clock:(Clock.fake ()) ~enabled:true () in
  Span.with_span ~tracer:t ~args:[ ("app", "x\"y") ] "outer" (fun () ->
      Span.with_span ~tracer:t "inner" (fun () -> ()));
  let events = span_events t in
  check Alcotest.int "one event per span" 2 (List.length events);
  let names =
    List.filter_map
      (fun ev ->
        match Json.member "name" ev with Some (Json.Str s) -> Some s | _ -> None)
      events
  in
  check Alcotest.(list string) "names in begin order" [ "outer"; "inner" ] names;
  List.iter
    (fun ev ->
      (match Json.member "ph" ev with
      | Some (Json.Str "X") -> ()
      | _ -> Alcotest.fail "not a complete event");
      match (Json.member "ts" ev, Json.member "dur" ev) with
      | Some (Json.Int ts), Some (Json.Int dur) ->
          check Alcotest.bool "non-negative ts/dur" true (ts >= 0 && dur >= 0)
      | _ -> Alcotest.fail "ts/dur not integers")
    events;
  (* The inner span begins 1 (fake-clock) second after the outer one. *)
  let ts_of ev =
    match Json.member "ts" ev with Some (Json.Int n) -> n | _ -> -1
  in
  check Alcotest.int "outer rebased to 0" 0 (ts_of (List.nth events 0));
  check Alcotest.int "inner offset 1s" 1_000_000 (ts_of (List.nth events 1))

let test_metrics_json_shape () =
  let r = Metrics.create ~enabled:true () in
  let c = Metrics.counter ~registry:r ~help:"not exported" "reqs" in
  Metrics.incr c ~labels:[ ("app", "ted") ] ~by:3;
  List.iter
    (fun v -> Metrics.incr c ~labels:[ ("v", v) ])
    [
      "q\"uote"; "back\\slash"; "new\nline\r\t"; "ctl\001\031";
      "caf\xc3\xa9 \xe6\x97\xa5";
    ];
  let h = Metrics.histogram ~registry:r ~buckets:[ 2.0 ] "sizes" in
  Metrics.observe h 1.0;
  Metrics.observe h 5.0 (* the +inf overflow bucket *);
  let g = Metrics.gauge ~registry:r "level" in
  Metrics.set g ~labels:[ ("at", "low") ] (-3.25);
  Metrics.set g ~labels:[ ("at", "high") ] 1e20;
  let doc = Export.metrics_json r in
  (* The decoder gives back the snapshot the document was written from,
     help strings aside. *)
  (match Export.metrics_of_json doc with
  | Ok decoded ->
      check Alcotest.bool "snapshot round-trips through its decoder" true
        (decoded
        = List.map
            (fun (s : Metrics.sample) -> { s with Metrics.sa_help = "" })
            (Metrics.snapshot r))
  | Error msg -> Alcotest.fail msg);
  (* What a round trip cannot see: histogram series carry percentile
     summaries alongside the raw buckets; non-histograms don't. *)
  let named n =
    match Json.member "metrics" (Json.of_string doc) with
    | Some (Json.List l) ->
        List.find (fun s -> Json.member "name" s = Some (Json.Str n)) l
    | _ -> Alcotest.fail "no metrics array"
  in
  let histo = named "sizes" in
  (match Json.member "p50" histo with
  | Some (Json.Float _ | Json.Int _) -> ()
  | _ -> Alcotest.fail "histogram without p50");
  check Alcotest.bool "p95 present" true (Json.member "p95" histo <> None);
  check Alcotest.bool "p99 present" true (Json.member "p99" histo <> None);
  check Alcotest.bool "counter has no percentiles" true
    (Json.member "p50" (named "reqs") = None)

let test_chrome_trace_lanes () =
  (* Two lanes on one shared clock: each gets a thread_name metadata
     record, spans land on their lane's tid, per-lane timestamps are
     re-sorted monotonic, and both lanes share the earliest begin as
     epoch (the coordinator lane's first span starts later, so its first
     ts is positive). *)
  let clock = Clock.fake ~start:100.0 ~step:1.0 () in
  let wa = Span.create ~clock ~enabled:true () in
  Span.with_span ~tracer:wa "a1" (fun () -> ());
  let wb = Span.create ~clock ~enabled:true () in
  Span.with_span ~tracer:wb "b1" (fun () -> ());
  let trace =
    Export.chrome_trace_lanes
      [
        ("coordinator", 0, Span.spans wb);
        ("worker 41", 1, Span.spans wa);
      ]
  in
  let json = Json.of_string trace in
  let events =
    match Json.member "traceEvents" json with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents"
  in
  let metas =
    List.filter (fun e -> Json.member "ph" e = Some (Json.Str "M")) events
  in
  let lane_names =
    List.filter_map
      (fun e ->
        match Json.member "args" e with
        | Some args -> (
            match Json.member "name" args with
            | Some (Json.Str n) -> Some n
            | _ -> None)
        | None -> None)
      metas
  in
  check
    Alcotest.(list string)
    "one thread_name per lane"
    [ "coordinator"; "worker 41" ]
    lane_names;
  let ts_of e =
    match Json.member "ts" e with
    | Some (Json.Float f) -> f
    | Some (Json.Int n) -> float_of_int n
    | _ -> Alcotest.fail "span without ts"
  in
  let spans_on tid =
    List.filter
      (fun e ->
        Json.member "ph" e = Some (Json.Str "X")
        && Json.member "tid" e = Some (Json.Int tid))
      events
  in
  check Alcotest.int "coordinator lane spans" 1 (List.length (spans_on 0));
  check Alcotest.int "worker lane spans" 1 (List.length (spans_on 1));
  (* Shared epoch: worker a began at 100 (epoch), coordinator b at 102. *)
  check (Alcotest.float 0.0) "worker rebased to epoch" 0.0
    (ts_of (List.hd (spans_on 1)));
  check (Alcotest.float 0.0) "coordinator shares the epoch" 2e6
    (ts_of (List.hd (spans_on 0)))

let test_metrics_json_empty_registry () =
  (* An empty registry exports a well-formed document with an empty
     series array — and registration alone records nothing. *)
  let r = Metrics.create ~enabled:true () in
  (match Json.member "metrics" (Json.of_string (Export.metrics_json r)) with
  | Some (Json.List []) -> ()
  | _ -> Alcotest.fail "empty registry must export an empty metrics array");
  ignore (Metrics.counter ~registry:r "silent");
  ignore (Metrics.histogram ~registry:r "sizes");
  (match Json.member "metrics" (Json.of_string (Export.metrics_json r)) with
  | Some (Json.List []) -> ()
  | _ -> Alcotest.fail "registration without observations must not export")

let test_chrome_trace_escapes_args () =
  (* Span args carrying quotes, backslashes and control characters must
     still yield parseable JSON with the values intact. *)
  let t = Span.create ~clock:(Clock.fake ()) ~enabled:true () in
  let nasty = "a\"b\\c\nd\te" in
  Span.with_span ~tracer:t ~args:[ ("app", nasty) ] "x" (fun () -> ());
  match span_events t with
  | [ ev ] -> (
      match Json.member "args" ev with
      | Some args ->
          check Alcotest.bool "arg value survives escaping" true
            (Json.member "app" args = Some (Json.Str nasty))
      | None -> Alcotest.fail "args object missing")
  | _ -> Alcotest.fail "expected exactly one event"

let test_chrome_trace_raising_span () =
  (* A span closed by an exception still exports as a complete event. *)
  let t = Span.create ~clock:(Clock.fake ()) ~enabled:true () in
  (try Span.with_span ~tracer:t "boom" (fun () -> failwith "x")
   with Failure _ -> ());
  match span_events t with
  | [ ev ] ->
      check Alcotest.bool "name" true
        (Json.member "name" ev = Some (Json.Str "boom"));
      (match Json.member "dur" ev with
      | Some (Json.Int d) -> check Alcotest.bool "dur non-negative" true (d >= 0)
      | _ -> Alcotest.fail "dur missing")
  | _ -> Alcotest.fail "raising span not exported"

let test_write_file_atomic () =
  let path = Filename.temp_file "telemetry" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Export.write_file path "first";
  Export.write_file path "second";
  check Alcotest.string "rename replaced the contents" "second"
    (In_channel.with_open_text path In_channel.input_all);
  (* No temp droppings left next to the target. *)
  let dir = Filename.dirname path in
  let prefix = "." ^ Filename.basename path in
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f >= String.length prefix
           && String.sub f 0 (String.length prefix) = prefix)
  in
  check Alcotest.(list string) "no temp files left" [] leftovers

let test_folded_export () =
  let t = Span.create ~clock:(Clock.fake ()) ~enabled:true () in
  Span.with_span ~tracer:t "a" (fun () ->
      Span.with_span ~tracer:t "b" (fun () ->
          Span.with_span ~tracer:t "c" (fun () -> ())));
  (* Self times in µs: a=2s, b=2s, c=1s; lines sorted by stack. *)
  check Alcotest.string "folded lines"
    "a 2000000\na;b 2000000\na;b;c 1000000\n"
    (Export.folded_lanes [ Span.spans t ]);
  (* Two lanes with the same stack fold together by summing. *)
  let t2 = Span.create ~clock:(Clock.fake ()) ~enabled:true () in
  Span.with_span ~tracer:t2 "a" (fun () -> ());
  (* "a" weighs 2s of self time in the first lane + 1s in the second. *)
  check Alcotest.string "lanes merge by summing"
    "a 3000000\na;b 2000000\na;b;c 1000000\n"
    (Export.folded_lanes [ Span.spans t; Span.spans t2 ])

(* ------------------------------------------------------------------ *)
(* Method-level profiler                                              *)
(* ------------------------------------------------------------------ *)

module Profile = Extr_telemetry.Profile

let test_profile_disabled_noop () =
  let p = Profile.create () in
  let cu = Profile.cursor ~profile:p ~phase:"ph" ~render:Fun.id () in
  Profile.visit cu "m1";
  Profile.spend cu 5;
  Profile.add_facts cu 2;
  Profile.close cu;
  Profile.record_waste p ~scope:"app" ~touched:3 ~contributing:1;
  check Alcotest.int "no entries when disabled" 0
    (List.length (Profile.entries p));
  check Alcotest.int "no waste when disabled" 0
    (List.length (Profile.wastes p))

let test_profile_cursor_accounting () =
  let clock, advance = Clock.manual ~start:0.0 () in
  let p = Profile.create ~clock ~enabled:true () in
  let cu = Profile.cursor ~profile:p ~phase:"ph" ~render:Fun.id () in
  Profile.visit cu "m1";
  Profile.spend cu 3;
  Profile.add_facts cu 1;
  advance 2.0;
  (* Same method again: one more visit, no switch, no time flushed yet. *)
  Profile.visit cu "m1";
  Profile.spend cu 2;
  advance 1.0;
  (* Switch: the 3 elapsed seconds flush to m1. *)
  Profile.visit cu "m2";
  advance 4.0;
  Profile.close cu;
  match Profile.entries p with
  | [ e1; e2 ] ->
      check Alcotest.string "m1 first (sorted)" "m1" e1.Profile.e_meth;
      check Alcotest.string "phase recorded" "ph" e1.Profile.e_phase;
      check (Alcotest.float 1e-9) "m1 time spans both visits" 3.0
        e1.Profile.e_time_s;
      check Alcotest.int "m1 visits" 2 e1.Profile.e_visits;
      check Alcotest.int "m1 fuel" 5 e1.Profile.e_fuel;
      check Alcotest.int "m1 facts" 1 e1.Profile.e_facts;
      check Alcotest.string "m2 second" "m2" e2.Profile.e_meth;
      check (Alcotest.float 1e-9) "m2 time flushed on close" 4.0
        e2.Profile.e_time_s;
      check Alcotest.int "m2 visits" 1 e2.Profile.e_visits
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es)

let test_profile_merge_commutes () =
  let mk l =
    {
      Profile.sn_entries =
        List.map
          (fun (ph, m, t, f, v, fa) ->
            {
              Profile.e_phase = ph;
              e_meth = m;
              e_time_s = t;
              e_fuel = f;
              e_visits = v;
              e_facts = fa;
            })
          l;
      sn_wastes = [];
    }
  in
  let a = mk [ ("ph", "m1", 1.0, 10, 2, 1); ("ph", "m2", 0.5, 5, 1, 0) ] in
  let b = mk [ ("ph", "m1", 2.0, 20, 3, 4); ("zz", "m3", 0.1, 1, 1, 0) ] in
  let p1 = Profile.create ~enabled:true () in
  Profile.merge p1 a;
  Profile.merge p1 b;
  let p2 = Profile.create ~enabled:true () in
  Profile.merge p2 b;
  Profile.merge p2 a;
  check Alcotest.bool "merge order does not change the table" true
    (Profile.entries p1 = Profile.entries p2);
  match Profile.entries p1 with
  | [ m1; m2; m3 ] ->
      check Alcotest.string "sorted by (phase, meth)" "m1" m1.Profile.e_meth;
      check Alcotest.int "fuel added" 30 m1.Profile.e_fuel;
      check Alcotest.int "visits added" 5 m1.Profile.e_visits;
      check Alcotest.int "facts added" 5 m1.Profile.e_facts;
      check (Alcotest.float 1e-9) "times added" 3.0 m1.Profile.e_time_s;
      check Alcotest.string "m2 kept" "m2" m2.Profile.e_meth;
      check Alcotest.string "other phase last" "zz" m3.Profile.e_phase
  | es -> Alcotest.failf "expected 3 entries, got %d" (List.length es)

let test_profile_marks_and_waste () =
  let p = Profile.create ~enabled:true () in
  let cu = Profile.cursor ~profile:p ~phase:"ph" ~render:Fun.id () in
  let g1 = Profile.mark p in
  Profile.visit cu "m1";
  Profile.close cu;
  let g2 = Profile.mark p in
  Profile.visit cu "m2";
  Profile.close cu;
  check
    Alcotest.(list string)
    "all methods since the first mark" [ "m1"; "m2" ]
    (Profile.methods_since p g1);
  check
    Alcotest.(list string)
    "only the second run's methods since its mark" [ "m2" ]
    (Profile.methods_since p g2);
  Profile.record_waste p ~scope:"b-app" ~touched:4 ~contributing:1;
  Profile.record_waste p ~scope:"a-app" ~touched:2 ~contributing:2;
  (match Profile.wastes p with
  | [ w1; w2 ] ->
      check Alcotest.string "stable-sorted by scope" "a-app" w1.Profile.w_scope;
      check (Alcotest.float 1e-9) "fully contributing: no waste" 0.0
        (Profile.waste_ratio w1);
      check (Alcotest.float 1e-9) "3 of 4 wasted" 0.75 (Profile.waste_ratio w2)
  | ws -> Alcotest.failf "expected 2 waste rows, got %d" (List.length ws));
  check (Alcotest.float 1e-9) "zero touched is not a division" 0.0
    (Profile.waste_ratio
       { Profile.w_scope = "z"; w_touched = 0; w_contributing = 0 })

let test_profile_json_shape () =
  let p = Profile.create ~enabled:true () in
  let entry e_phase e_meth e_time_s e_visits =
    { Profile.e_phase; e_meth; e_time_s; e_fuel = 7; e_visits; e_facts = 1 }
  in
  Profile.merge p
    {
      Profile.sn_entries =
        [
          entry "ph" "m" 0.25 3;
          entry "slicing.backward" "La/\"b\";->c\n" (1.0 /. 3.0) max_int;
        ];
      sn_wastes =
        [
          { Profile.w_scope = "app"; w_touched = 4; w_contributing = 3 };
          {
            Profile.w_scope = "caf\xc3\xa9";
            w_touched = 0;
            w_contributing = 0;
          };
        ];
    };
  let phases =
    [ ("pipeline.ph", 0.5, 0.5); ("pipeline.slicing", 1e-7, 2.0 /. 3.0) ]
  in
  let view = (Profile.snapshot p, phases) in
  let doc = Export.profile_json view in
  (* The decoder gives back the snapshot and the rollup it was written
     from, through odd method names and times that need every digit, and
     the one printer reads the decoded pair as the encoded one. *)
  (match Export.profile_of_json doc with
  | Ok ((sn, ph) as decoded) ->
      check Alcotest.bool "snapshot round-trips through its decoder" true
        (sn = Profile.snapshot p);
      check Alcotest.bool "phase rollup round-trips" true (ph = phases);
      check Alcotest.string "decoded pair prints as the encoded one"
        (Fmt.str "%a" Export.pp_profile view)
        (Fmt.str "%a" Export.pp_profile decoded)
  | Error msg -> Alcotest.fail msg);
  (* What a round trip cannot see: the derived waste ratio. *)
  match Json.member "waste" (Json.of_string doc) with
  | Some (Json.List (w :: _)) -> (
      match Json.member "waste_ratio" w with
      | Some (Json.Float r) -> check (Alcotest.float 1e-9) "ratio" 0.25 r
      | _ -> Alcotest.fail "waste_ratio missing")
  | _ -> Alcotest.fail "waste rows missing"

(* ------------------------------------------------------------------ *)
(* Log setup                                                          *)
(* ------------------------------------------------------------------ *)

let test_level_of_string () =
  let open Extr_telemetry.Log_setup in
  check Alcotest.bool "debug" true
    (level_of_string "DEBUG" = Ok (Some Logs.Debug));
  check Alcotest.bool "info" true
    (level_of_string "info" = Ok (Some Logs.Info));
  check Alcotest.bool "warn alias" true
    (level_of_string "warn" = Ok (Some Logs.Warning));
  check Alcotest.bool "quiet disables" true (level_of_string "quiet" = Ok None);
  check Alcotest.bool "off disables" true (level_of_string "off" = Ok None);
  match level_of_string "bogus" with
  | Error msg ->
      let contains hay needle =
        let n = String.length needle and h = String.length hay in
        let rec go i =
          i + n <= h && (String.sub hay i n = needle || go (i + 1))
        in
        go 0
      in
      check Alcotest.bool "error names the input" true (contains msg "bogus")
  | Ok _ -> Alcotest.fail "bogus level accepted"

(* ------------------------------------------------------------------ *)
(* Pipeline integration                                               *)
(* ------------------------------------------------------------------ *)

let with_default_telemetry f =
  Span.reset Span.default;
  Metrics.reset Metrics.default;
  Span.set_enabled Span.default true;
  Metrics.set_enabled Metrics.default true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled Span.default false;
      Metrics.set_enabled Metrics.default false)
    f

let test_pipeline_spans () =
  with_default_telemetry @@ fun () ->
  let e = Option.get (Corpus.find (Corpus.case_studies ()) "SharedDP") in
  ignore (Pipeline.analyze (Lazy.force e.Corpus.c_apk));
  let root =
    match Span.find Span.default "pipeline.analyze" with
    | Some sp -> sp
    | None -> Alcotest.fail "no root span"
  in
  check Alcotest.bool "root duration non-negative" true
    (Span.duration_s root >= 0.0);
  List.iter
    (fun phase ->
      let name = "pipeline." ^ phase in
      let matching =
        List.filter
          (fun sp -> sp.Span.sp_name = name)
          (Span.spans Span.default)
      in
      check Alcotest.int (name ^ " appears once") 1 (List.length matching);
      let sp = List.hd matching in
      check Alcotest.bool (name ^ " nested under root") true
        (sp.Span.sp_depth = 1
        && sp.Span.sp_begin_s >= root.Span.sp_begin_s
        && sp.Span.sp_end_s <= root.Span.sp_end_s);
      check Alcotest.bool (name ^ " duration non-negative") true
        (Span.duration_s sp >= 0.0))
    Pipeline.phase_names

let test_pipeline_metrics () =
  with_default_telemetry @@ fun () ->
  let e = Option.get (Corpus.find (Corpus.case_studies ()) "SharedDP") in
  ignore (Pipeline.analyze (Lazy.force e.Corpus.c_apk));
  let positive name =
    check Alcotest.bool (name ^ " > 0") true (Metrics.value Metrics.default name > 0.0)
  in
  positive "slicer.demarcation_points";
  check Alcotest.bool "slicer.slice_stmts{kind=request} > 0" true
    (Metrics.value
       ~labels:[ ("kind", "request") ]
       Metrics.default "slicer.slice_stmts"
    > 0.0);
  positive "taint.backward.worklist_steps";
  positive "interp.statements";
  positive "interp.transactions";
  positive "pairing.pairs";
  check Alcotest.bool "per-app transaction counter" true
    (Metrics.value ~labels:[ ("app", "SharedDP") ] Metrics.default
       "pipeline.transactions"
    > 0.0)

let test_pipeline_disabled_records_nothing () =
  Span.reset Span.default;
  Metrics.reset Metrics.default;
  let e = Option.get (Corpus.find (Corpus.case_studies ()) "SharedDP") in
  ignore (Pipeline.analyze (Lazy.force e.Corpus.c_apk));
  check Alcotest.int "no spans when disabled" 0
    (List.length (Span.spans Span.default));
  check Alcotest.int "no series when disabled" 0
    (List.length (Metrics.snapshot Metrics.default))

let () =
  Alcotest.run "telemetry"
    [
      ( "clock",
        [ tc "fake advances per read" test_fake_clock;
          tc "manual advances on demand" test_manual_clock ] );
      ( "span",
        [
          tc "disabled tracer records nothing" test_span_disabled;
          tc "nesting, order, durations" test_span_nesting;
          tc "recorded on raise, depth restored" test_span_records_on_raise;
          tc "reset clears and restarts seq" test_span_reset;
          tc "self + children = cumulative" test_span_self_time;
        ] );
      ( "metrics",
        [
          tc "counter aggregation with labels" test_counter_aggregation;
          tc "label order canonicalized" test_label_order_irrelevant;
          tc "gauge last-wins" test_gauge_last_wins;
          tc "histogram cumulative buckets" test_histogram_buckets;
          tc "disabled registry is a no-op" test_disabled_registry_noop;
          tc "kind mismatch rejected" test_kind_mismatch_rejected;
          tc "reset keeps registrations" test_metrics_reset;
          tc "worker deltas merge exactly" test_merge_samples;
          tc "gauge merge is order-independent" test_gauge_merge_deterministic;
          tc "merge edge cases: empty, zero-bucket, associativity"
            test_merge_samples_edge_cases;
          tc "histogram percentile estimation" test_percentile;
          tc "percentile edge cases" test_percentile_edges;
        ] );
      ( "export",
        [
          tc "chrome trace is valid matched JSON" test_chrome_trace_valid_json;
          tc "multi-lane trace merge" test_chrome_trace_lanes;
          tc "metrics snapshot shape" test_metrics_json_shape;
          tc "empty registry exports cleanly" test_metrics_json_empty_registry;
          tc "chrome trace escapes arg values" test_chrome_trace_escapes_args;
          tc "raising span still exported" test_chrome_trace_raising_span;
          tc "write_file is atomic" test_write_file_atomic;
          tc "collapsed-stack folded export" test_folded_export;
        ] );
      ( "profile",
        [
          tc "disabled profiler is a no-op" test_profile_disabled_noop;
          tc "cursor time/fuel/visit/fact accounting"
            test_profile_cursor_accounting;
          tc "merge is order-independent and additive"
            test_profile_merge_commutes;
          tc "run marks and waste accounting" test_profile_marks_and_waste;
          tc "profile artifact JSON shape" test_profile_json_shape;
        ] );
      ("log-setup", [ tc "level parsing" test_level_of_string ]);
      ( "pipeline",
        [
          tc "one span per phase" test_pipeline_spans;
          tc "expected series recorded" test_pipeline_metrics;
          tc "disabled run records nothing" test_pipeline_disabled_records_nothing;
        ] );
    ]
