(* The index-driven call graph against references that do not go through
   the index: caller lists (contents AND order, since caller order feeds
   the taint worklists) against a whole-program fold of the call-site
   records, and caller lists, demarcation points and case-study report
   envelopes against golden digests.  Also the regression test for the work-stack
   [reachable_from] (deep synthetic call chains used to blow the OCaml
   stack) and the check that laziness really skips methods. *)

module Ir = Extr_ir.Types
module B = Extr_ir.Builder
module Prog = Extr_ir.Prog
module Callgraph = Extr_cfg.Callgraph
module Api = Extr_semantics.Api
module Callbacks = Extr_semantics.Callbacks
module Slicer = Extr_slicing.Slicer
module Apk = Extr_apk.Apk
module Corpus = Extr_corpus.Corpus
module Pipeline = Extr_extractocol.Pipeline
module Report = Extr_extractocol.Report
module Json = Extr_httpmodel.Json

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let show_mid (m : Ir.method_id) = m.Ir.id_cls ^ "." ^ m.Ir.id_name

let show_sid (s : Ir.stmt_id) =
  Printf.sprintf "%s:%d" (show_mid s.Ir.sid_meth) s.Ir.sid_idx

let graph_of (apk : Apk.t) =
  let prog =
    Prog.of_program (Pipeline.with_library_classes apk.Apk.program)
  in
  ( prog,
    Callgraph.lazy_build ~callback_resolver:Callbacks.resolve
      ~callback_triggers:Callbacks.trigger_names prog )

(* Reference callers: fold every app method's call-site records in scan
   order, consing each site once per occurrence of a callee — so each list
   ends up in reverse scan order.  [Callgraph.callsites] asks the resolver
   about every invoke, so a [Callbacks.resolve] arm whose invoke name is
   missing from [Callbacks.trigger_names] shows up here and not in
   [Callgraph.callers]. *)
let reference_callers prog cg =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (m : Ir.meth) ->
      List.iter
        (fun (cs : Callgraph.callsite) ->
          List.iter
            (fun c ->
              let prev = Option.value (Hashtbl.find_opt tbl c) ~default:[] in
              Hashtbl.replace tbl c (cs.Callgraph.cs_stmt :: prev))
            cs.Callgraph.cs_callees)
        (Callgraph.callsites cg (Ir.method_id_of_meth m)))
    (Prog.app_methods prog);
  fun mid -> Option.value (Hashtbl.find_opt tbl mid) ~default:[]

let check_callers_against_fold name (apk : Apk.t) =
  let prog, cg = graph_of apk in
  let reference = reference_callers prog cg in
  List.iter
    (fun (m : Ir.meth) ->
      let mid = Ir.method_id_of_meth m in
      check
        Alcotest.(list string)
        (Printf.sprintf "%s: callers of %s" name (show_mid mid))
        (List.map show_sid (reference mid))
        (List.map show_sid (Callgraph.callers cg mid)))
    (Prog.app_methods prog)

let check_entries entries =
  List.iter
    (fun (e : Corpus.entry) ->
      check_callers_against_fold e.Corpus.c_app.Extr_corpus.Spec.a_name
        (Lazy.force e.Corpus.c_apk))
    entries

(* (a) 50 generated apps — the --gen stress corpus exercises deep call
   chains, shared helpers, listeners and unreachable filler methods. *)
let test_generated_equivalence () =
  check_entries (Corpus.generated ~seed:42 ~count:50)

(* (b) The hand-authored case studies carry the implicit-edge patterns
   (AsyncTask, Volley listeners, Timer, SQLite) the generator does not. *)
let test_case_study_equivalence () = check_entries (Corpus.case_studies ())

(* (c) Golden digests over 89 apps (case studies, Table 1, and
   [generated ~seed:42 ~count:50]), computed while the whole-program call
   graph and demarcation scan still existed and agreed with the index.
   Caller order and demarcation-point order reach every report byte, so
   neither may move without an [analysis_version] bump. *)
let golden_entries () =
  Corpus.case_studies () @ Corpus.table1 ()
  @ Corpus.generated ~seed:42 ~count:50

let digest_over_apps line_of_app =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (e : Corpus.entry) ->
      let prog, cg = graph_of (Lazy.force e.Corpus.c_apk) in
      line_of_app buf prog cg)
    (golden_entries ());
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden_callers () =
  let lines buf prog cg =
    List.iter
      (fun (m : Ir.meth) ->
        let mid = Ir.method_id_of_meth m in
        Buffer.add_string buf
          (Printf.sprintf "%s <- %s\n" (show_mid mid)
             (String.concat " " (List.map show_sid (Callgraph.callers cg mid)))))
      (Prog.app_methods prog)
  in
  check Alcotest.string "callers of 9,427 app methods"
    "48fb642aa161f6d4041e3e30393e9d80" (digest_over_apps lines)

let test_golden_dps () =
  let lines buf _ cg =
    List.iter
      (fun (dp : Slicer.dp_site) ->
        Buffer.add_string buf (show_sid dp.Slicer.dp_stmt ^ "\n"))
      (Slicer.find_demarcation_points (Callgraph.index cg))
  in
  check Alcotest.string "1,651 demarcation points"
    "3a4350dc345febf6b8ca9603c55ce956" (digest_over_apps lines)

(* (d) Report envelopes, each app under its own configuration.  The case
   studies' printed reports were digested with the whole-program call
   graph still present: a call-graph change that keeps the golden caller
   and DP lists but moves a report byte fails here.  The JSON reports of
   Table 1 and the 50 generated apps (what [--report-out] writes: origins,
   dependencies and consumers too) were digested before the callback
   table drove the taint engines and the interpreters. *)
let envelopes_digest render entries =
  let buf = Buffer.create 16384 in
  List.iter
    (fun (e : Corpus.entry) ->
      let options =
        if e.Corpus.c_app.Extr_corpus.Spec.a_closed then Pipeline.default_options
        else Pipeline.open_source_options
      in
      let report =
        (Pipeline.analyze ~options (Lazy.force e.Corpus.c_apk)).Pipeline.an_report
      in
      Buffer.add_string buf (render report))
    entries;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden_envelopes () =
  (* Wall time is the one legitimately nondeterministic field. *)
  check Alcotest.string "case-study envelopes"
    "2b5fedeafa940e78eeb4591f46e07631"
    (envelopes_digest
       (fun r -> Format.asprintf "%a" Report.pp { r with Report.rp_elapsed_s = 0.0 })
       (Corpus.case_studies ()));
  check Alcotest.string "Table-1 and generated JSON reports"
    "d804bc671c14a5a52f50afe88027a5f5"
    (envelopes_digest
       (fun r -> Json.to_string (Report.to_json ~deterministic:true r))
       (Corpus.table1 () @ Corpus.generated ~seed:42 ~count:50))

(* (e) Work-stack regression: a 100k-deep synthetic call chain must not
   blow the stack in [reachable_from] (it did, as a spurious [crashed]
   quarantine, before the explicit work stack). *)
let test_deep_chain_reachability () =
  let depth = 100_000 in
  let meth i =
    B.mk_meth ~cls:"Chain"
      ~name:(Printf.sprintf "m%d" i)
      ~params:[] ~ret:Ir.Void
      (fun b ->
        if i + 1 < depth then
          B.call b (B.static_call "Chain" (Printf.sprintf "m%d" (i + 1)) []))
  in
  let prog =
    Prog.of_program
      {
        Ir.p_classes =
          [ B.mk_cls ~super:Api.java_object "Chain" (List.init depth meth) ];
        p_entries = [];
      }
  in
  let cg =
    Callgraph.lazy_build ~callback_resolver:Callbacks.resolve
      ~callback_triggers:Callbacks.trigger_names prog
  in
  let reach =
    Callgraph.reachable_from cg [ { Ir.id_cls = "Chain"; id_name = "m0" } ]
  in
  check Alcotest.int "whole chain reachable" depth (Ir.Method_set.cardinal reach)

(* (f) Laziness is real: after a full pipeline run, some app methods must
   never have been resolved (generated apps always carry unreachable
   filler helpers). *)
let test_demand_skips_methods () =
  let skipped_total = ref 0 in
  List.iter
    (fun (e : Corpus.entry) ->
      let an = Pipeline.analyze (Lazy.force e.Corpus.c_apk) in
      let total = List.length (Prog.app_methods an.Pipeline.an_prog) in
      let resolved = Callgraph.resolved_count an.Pipeline.an_cg in
      check Alcotest.bool "never resolves more than exist" true
        (resolved <= total);
      skipped_total := !skipped_total + (total - resolved))
    (Corpus.generated ~seed:42 ~count:20);
  (* Not every generated app carries unreachable helpers, but a 20-app
     batch always does somewhere — zero would mean the graph silently
     resolves the whole program. *)
  check Alcotest.bool "some method skipped across the batch" true
    (!skipped_total > 0)

let () =
  Alcotest.run "demand"
    [
      ( "equivalence",
        [
          tc "generated corpus (50 apps)" test_generated_equivalence;
          tc "case studies" test_case_study_equivalence;
          tc "report envelopes byte-identical" test_golden_envelopes;
        ] );
      ( "golden",
        [
          tc "callers digest (89 apps)" test_golden_callers;
          tc "demarcation points digest (89 apps)" test_golden_dps;
        ] );
      ( "laziness",
        [
          tc "deep chain reachability (100k)" test_deep_chain_reachability;
          tc "unreachable methods stay unresolved" test_demand_skips_methods;
        ] );
    ]
