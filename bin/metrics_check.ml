(* Build-time guard for the telemetry wiring.

   Invoked from the runtest alias with the metrics snapshot and Chrome
   trace that [extractocol --metrics-out --trace-out] wrote for the
   smallest corpus app.  Fails (exit 1) if the snapshot is missing an
   expected series or the trace is missing a phase span, so silent
   instrumentation rot breaks the build instead of the dashboards.  The
   app carries methods no demarcation point reaches, so the snapshot must
   also show the lazy call graph skipping at least one of them. *)

module C = Check_common
module Json = Extr_httpmodel.Json
module Pipeline = Extr_extractocol.Pipeline

let ck = C.create "metrics_check"

let required_metrics =
  [
    "slicer.demarcation_points";
    "slicer.slice_stmts";
    "taint.backward.worklist_steps";
    "taint.backward.facts";
    "taint.forward.worklist_steps";
    "interp.statements";
    "interp.transactions";
    "pairing.pairs";
    "pipeline.elapsed_seconds";
    "pipeline.transactions";
    "callgraph.methods_resolved";
    "callgraph.methods_skipped";
    "slicer.skipped_method_ratio";
  ]

let check_metrics path =
  let json = C.load_json ck path in
  let series =
    match C.list_member "metrics" json with
    | Some l -> l
    | None ->
        C.fail ck "%s: no \"metrics\" array" path;
        []
  in
  let names = List.filter_map (C.str_member "name") series in
  List.iter
    (fun name ->
      if not (List.mem name names) then
        C.fail ck "%s: metric %S absent from snapshot" path name)
    required_metrics;
  match
    List.find_opt
      (fun s -> C.str_member "name" s = Some "callgraph.methods_skipped")
      series
  with
  | None -> ()
  | Some s -> (
      match C.int_member "count" s with
      | Some n when n >= 1 -> ()
      | Some n ->
          C.fail ck "%s: callgraph.methods_skipped = %d, expected at least 1"
            path n
      | None -> C.fail ck "%s: callgraph.methods_skipped has no integer count" path)

let check_trace path =
  let json = C.load_json ck path in
  let events =
    match C.list_member "traceEvents" json with
    | Some l -> l
    | None ->
        C.fail ck "%s: no \"traceEvents\" array" path;
        []
  in
  let has_span name =
    List.exists
      (fun ev ->
        C.str_member "ph" ev = Some "X" && C.str_member "name" ev = Some name)
      events
  in
  List.iter
    (fun span ->
      if not (has_span span) then
        C.fail ck "%s: no complete event for span %S" path span)
    ("pipeline.analyze"
    :: List.map (fun p -> "pipeline." ^ p) Pipeline.phase_names)

let () =
  match Sys.argv with
  | [| _; metrics_path; trace_path |] ->
      check_metrics metrics_path;
      check_trace trace_path;
      C.finish ck
  | _ -> C.usage ck "METRICS.json TRACE.json"
