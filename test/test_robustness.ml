(* Failure injection and pathological-input robustness: the pipeline must
   terminate and degrade gracefully on recursion, infinite loops, deep
   call chains, empty or entry-less apps, and malformed runtime data —
   real APKs contain all of these. *)

module Ir = Extr_ir.Types
module B = Extr_ir.Builder
module Prog = Extr_ir.Prog
module Api = Extr_semantics.Api
module Apk = Extr_apk.Apk
module Pipeline = Extr_extractocol.Pipeline
module Report = Extr_extractocol.Report
module Http = Extr_httpmodel.Http
module Json = Extr_httpmodel.Json
module Runtime = Extr_runtime.Runtime
module Resilience = Extr_resilience.Resilience
module Chaos = Extr_resilience.Chaos
module Corpus = Extr_corpus.Corpus
module Clock = Extr_telemetry.Clock
module Metrics = Extr_telemetry.Metrics
module Spec = Extr_corpus.Spec

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let apk_of ?(entries = []) classes =
  let activities =
    List.filter_map
      (fun (c : Ir.cls) ->
        match c.Ir.c_super with
        | Some s when s = Api.activity -> Some c.Ir.c_name
        | Some _ | None -> None)
      classes
  in
  Apk.make ~package:"com.robust" ~activities
    { Ir.p_classes = classes @ Api.library_classes; p_entries = entries }

let tx_count apk =
  List.length (Pipeline.analyze apk).Pipeline.an_report.Report.rp_transactions

(* Fire one GET so every pathological app still has a protocol surface. *)
let emit_get b uri =
  let client = B.new_obj b Api.default_http_client [] in
  let req = B.new_obj b Api.http_get [ uri ] in
  B.call b
    (B.virtual_call ~ret:(Ir.Obj Api.http_response) client Api.http_client
       "execute" [ B.vl req ])

(* ------------------------------------------------------------------ *)
(* Termination                                                        *)
(* ------------------------------------------------------------------ *)

let test_direct_recursion_terminates () =
  (* onCreate calls a method that recurses unconditionally before firing
     a request; the recursion guard must cut the cycle, and the request
     must still be extracted. *)
  let cls = "com.robust.Rec" in
  let spin =
    B.mk_meth ~cls ~name:"spin" ~params:[] ~ret:Ir.Void (fun b ->
        B.call b (B.virtual_call (Ir.this_var cls) cls "spin" []);
        emit_get b (B.vstr "https://r/x");
        B.return_void b)
  in
  let on_create =
    B.mk_meth ~cls ~name:"onCreate" ~params:[] ~ret:Ir.Void (fun b ->
        B.call b (B.virtual_call (Ir.this_var cls) cls "spin" []);
        B.return_void b)
  in
  let apk = apk_of [ B.mk_cls ~super:Api.activity cls [ spin; on_create ] ] in
  check Alcotest.int "request found despite recursion" 1 (tx_count apk)

let test_mutual_recursion_terminates () =
  let cls = "com.robust.Mut" in
  let a =
    B.mk_meth ~cls ~name:"a" ~params:[] ~ret:Ir.Void (fun b ->
        B.call b (B.virtual_call (Ir.this_var cls) cls "b" []);
        B.return_void b)
  in
  let b_ =
    B.mk_meth ~cls ~name:"b" ~params:[] ~ret:Ir.Void (fun b ->
        B.call b (B.virtual_call (Ir.this_var cls) cls "a" []);
        emit_get b (B.vstr "https://r/m");
        B.return_void b)
  in
  let on_create =
    B.mk_meth ~cls ~name:"onCreate" ~params:[] ~ret:Ir.Void (fun b ->
        B.call b (B.virtual_call (Ir.this_var cls) cls "a" []);
        B.return_void b)
  in
  let apk = apk_of [ B.mk_cls ~super:Api.activity cls [ a; b_; on_create ] ] in
  check Alcotest.int "request found despite mutual recursion" 1 (tx_count apk)

let test_infinite_loop_bounded () =
  (* while(true) { sb.append(...) }: the interpreter's loop passes are
     bounded; analysis terminates and the loop-built URI is widened. *)
  let cls = "com.robust.Loop" in
  let on_create =
    B.mk_meth ~cls ~name:"onCreate" ~params:[] ~ret:Ir.Void (fun b ->
        let sb = B.new_obj b Api.string_builder [ B.vstr "https://r/l?" ] in
        B.while_ b
          (fun b -> B.vl (B.define b Ir.Bool (Ir.Val (B.vbool true))))
          (fun b ->
            ignore
              (B.call_ret b (Ir.Obj Api.string_builder)
                 (B.virtual_call
                    ~ret:(Ir.Obj Api.string_builder)
                    sb Api.string_builder "append" [ B.vstr "&x=1" ])));
        let uri =
          B.call_ret b Ir.Str
            (B.virtual_call ~ret:Ir.Str sb Api.string_builder "toString" [])
        in
        emit_get b (B.vl uri);
        B.return_void b)
  in
  let apk = apk_of [ B.mk_cls ~super:Api.activity cls [ on_create ] ] in
  let report = (Pipeline.analyze apk).Pipeline.an_report in
  match report.Report.rp_transactions with
  | [ tr ] ->
      let regex =
        Extr_siglang.Strsig.to_regex tr.Report.tr_request.Extr_siglang.Msgsig.rs_uri
      in
      check Alcotest.bool "loop part widened to a repetition" true
        (let rec contains i =
           i + 7 <= String.length regex
           && (String.sub regex i 7 = "(&x=1)*" || contains (i + 1))
         in
         contains 0)
  | txs -> Alcotest.failf "expected 1 transaction, got %d" (List.length txs)

let test_deep_call_chain_bounded () =
  (* A call chain deeper than io_max_depth: analysis terminates; the
     request at the bottom is out of reach (bounded inlining), which is a
     documented under-approximation, not a crash. *)
  let cls = "com.robust.Deep" in
  let depth = 40 in
  let meths =
    List.init depth (fun i ->
        B.mk_meth ~cls ~name:(Printf.sprintf "f%d" i) ~params:[] ~ret:Ir.Void
          (fun b ->
            (if i + 1 < depth then
               B.call b
                 (B.virtual_call (Ir.this_var cls) cls
                    (Printf.sprintf "f%d" (i + 1))
                    [])
             else emit_get b (B.vstr "https://r/deep"));
            B.return_void b))
  in
  let on_create =
    B.mk_meth ~cls ~name:"onCreate" ~params:[] ~ret:Ir.Void (fun b ->
        B.call b (B.virtual_call (Ir.this_var cls) cls "f0" []);
        B.return_void b)
  in
  let apk = apk_of [ B.mk_cls ~super:Api.activity cls (meths @ [ on_create ]) ] in
  (* Termination is the assertion; the count depends on the depth bound. *)
  let n = tx_count apk in
  check Alcotest.bool "terminates" true (n >= 0)

(* ------------------------------------------------------------------ *)
(* Degenerate apps                                                    *)
(* ------------------------------------------------------------------ *)

let test_empty_app () =
  let apk = apk_of [] in
  check Alcotest.int "no transactions" 0 (tx_count apk)

let test_app_without_entries () =
  (* A class with a request but no lifecycle entry and no registration:
     nothing executes, nothing is extracted. *)
  let cls = "com.robust.Orphan" in
  let m =
    B.mk_meth ~cls ~name:"fetch" ~params:[] ~ret:Ir.Void (fun b ->
        emit_get b (B.vstr "https://r/o");
        B.return_void b)
  in
  let apk = apk_of [ B.mk_cls cls [ m ] ] in
  check Alcotest.int "unreachable request not extracted" 0 (tx_count apk)

let test_unreachable_code_ignored () =
  let cls = "com.robust.Dead" in
  let on_create =
    B.mk_meth ~cls ~name:"onCreate" ~params:[] ~ret:Ir.Void (fun b ->
        emit_get b (B.vstr "https://r/live");
        B.return_void b;
        (* Statements after return are unreachable. *)
        emit_get b (B.vstr "https://r/dead");
        B.return_void b)
  in
  let apk = apk_of [ B.mk_cls ~super:Api.activity cls [ on_create ] ] in
  check Alcotest.int "only the live request" 1 (tx_count apk)

(* ------------------------------------------------------------------ *)
(* Runtime failure injection                                          *)
(* ------------------------------------------------------------------ *)

let test_runtime_error_responses () =
  (* A network that always answers 500 with garbage: the concrete runtime
     must finish the launch and record the failing transactions. *)
  let cls = "com.robust.Err" in
  let on_create =
    B.mk_meth ~cls ~name:"onCreate" ~params:[] ~ret:Ir.Void (fun b ->
        let client = B.new_obj b Api.default_http_client [] in
        let req = B.new_obj b Api.http_get [ B.vstr "https://r/e" ] in
        let resp =
          B.call_ret b (Ir.Obj Api.http_response)
            (B.virtual_call ~ret:(Ir.Obj Api.http_response) client
               Api.http_client "execute" [ B.vl req ])
        in
        let entity =
          B.call_ret b (Ir.Obj Api.http_entity)
            (B.virtual_call ~ret:(Ir.Obj Api.http_entity) resp
               Api.http_response "getEntity" [])
        in
        let body =
          B.call_ret b Ir.Str
            (B.static_call ~ret:Ir.Str Api.entity_utils "toString"
               [ B.vl entity ])
        in
        (* Parse the garbage as JSON and read a member: must not raise. *)
        let j = B.new_obj b Api.json_object [ B.vl body ] in
        let v =
          B.call_ret b Ir.Str
            (B.virtual_call ~ret:Ir.Str j Api.json_object "getString"
               [ B.vstr "missing" ])
        in
        ignore v;
        B.return_void b)
  in
  let apk = apk_of [ B.mk_cls ~super:Api.activity cls [ on_create ] ] in
  let net (_ : Http.request) =
    Http.response ~status:500 (Http.Text "<<<not json>>>")
  in
  let rt = Runtime.create ~net ~input:(fun () -> "") apk in
  ignore (Runtime.launch rt);
  let trace = Runtime.captured_trace rt in
  check Alcotest.int "failing transaction captured" 1
    (List.length trace.Http.tr_entries);
  match trace.Http.tr_entries with
  | [ e ] ->
      check Alcotest.int "status recorded" 500
        e.Http.te_tx.Http.tx_response.Http.resp_status
  | _ -> Alcotest.fail "trace shape"

let test_runtime_malformed_uri () =
  (* The app builds a URI from user text that is not a URI at all: the
     runtime skips the request rather than crashing. *)
  let cls = "com.robust.BadUri" in
  let on_create =
    B.mk_meth ~cls ~name:"onCreate" ~params:[] ~ret:Ir.Void (fun b ->
        emit_get b (B.vstr "::this is not a uri::");
        B.return_void b)
  in
  let apk = apk_of [ B.mk_cls ~super:Api.activity cls [ on_create ] ] in
  let net (_ : Http.request) = Http.response (Http.Text "ok") in
  let rt = Runtime.create ~net ~input:(fun () -> "") apk in
  ignore (Runtime.launch rt);
  let trace = Runtime.captured_trace rt in
  check Alcotest.int "no transaction for a malformed URI" 0
    (List.length trace.Http.tr_entries)

(* ------------------------------------------------------------------ *)
(* Resource governance (budgets, degradation ledger)                  *)
(* ------------------------------------------------------------------ *)

let limits ?(steps = max_int) ?(depth = 24) ?deadline () =
  {
    Resilience.Budget.bl_max_steps = steps;
    bl_max_depth = depth;
    bl_deadline_s = deadline;
  }

let test_budget_step_fuel () =
  let b = Resilience.Budget.create ~limits:(limits ~steps:10 ()) () in
  for _ = 1 to 10 do
    check Alcotest.bool "within fuel" true (Resilience.Budget.spend b)
  done;
  check Alcotest.bool "11th step refused" false (Resilience.Budget.spend b);
  check Alcotest.bool "trip is sticky" false (Resilience.Budget.spend b);
  check Alcotest.bool "not alive" false (Resilience.Budget.alive b);
  check Alcotest.bool "steps exhaustion" true
    (Resilience.Budget.exhaustion b = Some Resilience.Budget.Steps)

let test_budget_deadline_manual_clock () =
  let clock, advance = Clock.manual () in
  let b =
    Resilience.Budget.create ~clock ~limits:(limits ~deadline:5.0 ()) ()
  in
  (* Time stands still: thousands of steps pass the periodic poll. *)
  for _ = 1 to 5_000 do
    check Alcotest.bool "before deadline" true (Resilience.Budget.spend b)
  done;
  advance 10.0;
  (* The deadline is polled every 4096 steps, so the trip lands within
     one poll window of the clock advancing. *)
  let tripped = ref false in
  (try
     for _ = 1 to 4_096 do
       if not (Resilience.Budget.spend b) then begin
         tripped := true;
         raise Exit
       end
     done
   with Exit -> ());
  check Alcotest.bool "deadline tripped within a poll window" true !tripped;
  check Alcotest.bool "deadline exhaustion" true
    (Resilience.Budget.exhaustion b = Some Resilience.Budget.Deadline)

let test_budget_depth_not_sticky () =
  let b = Resilience.Budget.create ~limits:(limits ~depth:3 ()) () in
  check Alcotest.bool "shallow call ok" true
    (Resilience.Budget.depth_ok b ~depth:3);
  check Alcotest.bool "deep call clipped" false
    (Resilience.Budget.depth_ok b ~depth:4);
  check Alcotest.bool "clipping remembered" true
    (Resilience.Budget.depth_clipped b);
  check Alcotest.bool "clipping does not kill the budget" true
    (Resilience.Budget.alive b);
  check Alcotest.bool "shallow calls still ok after a clip" true
    (Resilience.Budget.depth_ok b ~depth:2)

let test_degrade_ledger_coalesces () =
  let ledger = Resilience.Degrade.create () in
  Resilience.Degrade.record ~ledger ~phase:"slicing.backward"
    ~reason:"step-budget-exhausted" ~work_left:3 "first bail";
  Resilience.Degrade.record ~ledger ~phase:"slicing.backward"
    ~reason:"step-budget-exhausted" ~work_left:4 "second bail";
  Resilience.Degrade.record ~ledger ~phase:"interpretation"
    ~reason:"deadline-exceeded" "different phase";
  match Resilience.Degrade.items ledger with
  | [ first; second ] ->
      check Alcotest.string "coalesced phase" "slicing.backward"
        first.Resilience.Degrade.dg_phase;
      check Alcotest.int "work_left summed" 7
        first.Resilience.Degrade.dg_work_left;
      check Alcotest.string "distinct phase kept" "interpretation"
        second.Resilience.Degrade.dg_phase
  | items -> Alcotest.failf "expected 2 ledger entries, got %d" (List.length items)

(* A busy app: enough slicing and interpretation work that a starved
   budget trips in every engine. *)
let busy_apk () =
  let cls = "com.robust.Busy" in
  let on_create =
    B.mk_meth ~cls ~name:"onCreate" ~params:[] ~ret:Ir.Void (fun b ->
        List.iter
          (fun i ->
            let sb =
              B.new_obj b Api.string_builder
                [ B.vstr (Printf.sprintf "https://r/busy/%d?" i) ]
            in
            List.iter
              (fun j ->
                ignore
                  (B.call_ret b (Ir.Obj Api.string_builder)
                     (B.virtual_call
                        ~ret:(Ir.Obj Api.string_builder)
                        sb Api.string_builder "append"
                        [ B.vstr (Printf.sprintf "&p%d=%d" j j) ])))
              (List.init 8 Fun.id);
            let uri =
              B.call_ret b Ir.Str
                (B.virtual_call ~ret:Ir.Str sb Api.string_builder "toString" [])
            in
            emit_get b (B.vl uri))
          (List.init 6 Fun.id);
        B.return_void b)
  in
  apk_of [ B.mk_cls ~super:Api.activity cls [ on_create ] ]

let analyze_with_limits apk l =
  Pipeline.analyze
    ~options:{ Pipeline.default_options with op_limits = l }
    apk

let test_starved_pipeline_degrades () =
  (* A 50-step budget cannot finish anything, but the pipeline must
     return a report — degraded and honest about it — not raise. *)
  let analysis = analyze_with_limits (busy_apk ()) (limits ~steps:50 ()) in
  let report = analysis.Pipeline.an_report in
  check Alcotest.bool "degradations reported" true
    (report.Report.rp_degradations <> []);
  List.iter
    (fun (d : Resilience.Degrade.degradation) ->
      check Alcotest.string "reason is the step trip" "step-budget-exhausted"
        d.Resilience.Degrade.dg_reason)
    report.Report.rp_degradations;
  (* The costliest real app starved to 500 steps must surface its
     degradations in the report AND the pipeline.degradations metric: a
     budget that trips silently is the failure this layer exists to
     prevent. *)
  Metrics.set_enabled Metrics.default true;
  Metrics.reset Metrics.default;
  let pinterest =
    match Corpus.find (Corpus.table1 ()) "Pinterest" with
    | Some e -> Lazy.force e.Corpus.c_apk
    | None -> Alcotest.fail "Pinterest missing from Table 1"
  in
  let starved = analyze_with_limits pinterest (limits ~steps:500 ()) in
  let counted =
    List.exists
      (fun (s : Metrics.sample) ->
        s.Metrics.sa_name = "pipeline.degradations" && s.Metrics.sa_count > 0)
      (Metrics.snapshot Metrics.default)
  in
  Metrics.set_enabled Metrics.default false;
  check Alcotest.bool "starved Pinterest reports degradations" true
    (starved.Pipeline.an_report.Report.rp_degradations <> []);
  check Alcotest.bool "and counts them in pipeline.degradations" true counted;
  (* One backward engine serves all 150 DPs: it trips once, and the
     §3.4 rounds stop there, so one degradation carries its pending
     work. *)
  match
    List.filter
      (fun (d : Resilience.Degrade.degradation) ->
        d.Resilience.Degrade.dg_phase = "slicing.backward")
      starved.Pipeline.an_report.Report.rp_degradations
  with
  | [ d ] ->
      check Alcotest.bool "backward work left" true
        (d.Resilience.Degrade.dg_work_left > 0)
  | ds ->
      Alcotest.failf "%d slicing.backward degradations, expected one"
        (List.length ds)

let test_default_limits_do_not_degrade () =
  (* The same app under default limits: governance must be invisible. *)
  let analysis =
    analyze_with_limits (busy_apk ()) Resilience.Budget.default_limits
  in
  let report = analysis.Pipeline.an_report in
  check Alcotest.int "no degradations at default limits" 0
    (List.length report.Report.rp_degradations);
  check Alcotest.int "all requests extracted" 6
    (List.length report.Report.rp_transactions);
  check Alcotest.bool "no transaction flagged degraded" false
    (List.exists
       (fun tr -> tr.Report.tr_degraded)
       report.Report.rp_transactions)

let test_degradations_in_report_json () =
  let analysis = analyze_with_limits (busy_apk ()) (limits ~steps:50 ()) in
  let report = analysis.Pipeline.an_report in
  check Alcotest.bool "the starved run degraded" true
    (report.Report.rp_degradations <> []);
  (* The report's degradations[] decodes back to the ledger it was
     written from, through the printed text, and so does a record of
     hostile strings. *)
  let reparse json = Json.of_string (Json.to_string json) in
  (match Json.member "degradations" (reparse (Report.to_json report)) with
  | Some (Json.List ds) ->
      check Alcotest.bool "report degradations round-trip" true
        (List.filter_map Report.degradation_of_json ds
        = report.Report.rp_degradations)
  | _ -> Alcotest.fail "no degradations array in report JSON");
  let odd =
    {
      Resilience.Degrade.dg_phase = "slicing.\"back\"ward";
      dg_reason = "deadline\nexceeded";
      dg_detail = "caf\xc3\xa9 \001";
      dg_work_left = -1;
    }
  in
  check Alcotest.bool "hostile degradation round-trips" true
    (Report.degradation_of_json (reparse (Report.json_of_degradation odd))
    = Some odd)

let test_standalone_engines_keep_historical_bounds () =
  (* Engines called outside the pipeline (tests, direct API use) get
     private fuel-only budgets matching the historical constants, so a
     plain [analyze] and a tiny standalone program behave as before. *)
  let apk = busy_apk () in
  let report = (Pipeline.analyze apk).Pipeline.an_report in
  check Alcotest.int "direct analyze unchanged" 6
    (List.length report.Report.rp_transactions)

(* ------------------------------------------------------------------ *)
(* Chaos properties                                                   *)
(* ------------------------------------------------------------------ *)

let chaos_limits = limits ~steps:2_000_000 ~deadline:10.0 ()

let test_chaos_mutants_never_raise () =
  (* Property over seeds: however the APK is corrupted, [analyze] run
     behind the barrier returns [Ok] — it degrades, it never raises — and
     the ledger it accumulated is the one its report carries (a
     degradation dropped between the two is unreported).  Seeds 1-20
     corrupt the first case study; seeds 1-60 then walk the case studies
     and Table 1. *)
  let pool = Array.of_list (Corpus.case_studies () @ Corpus.table1 ()) in
  List.iter
    (fun (seed, (entry : Corpus.entry)) ->
      let apk = Lazy.force entry.Corpus.c_apk in
      let mutant, mutations = Chaos.mutate ~seed apk in
      let tag =
        Printf.sprintf "seed %d on %s [%s]" seed entry.Corpus.c_app.Spec.a_name
          (String.concat "+" (List.map Chaos.mutation_name mutations))
      in
      match
        Resilience.Barrier.protect ~app:"mutant" (fun () ->
            analyze_with_limits mutant chaos_limits)
      with
      | Ok analysis ->
          check Alcotest.int (tag ^ ": ledger degradations all in the report")
            (List.length (Resilience.Degrade.items Resilience.Degrade.default))
            (List.length analysis.Pipeline.an_report.Report.rp_degradations)
      | Error crash ->
          Alcotest.failf "%s escaped: %a" tag Resilience.Barrier.pp_crash crash)
    (List.init 20 (fun i -> (i + 1, pool.(0)))
    @ List.init 60 (fun i -> (i + 1, pool.((i + 1) mod Array.length pool))))

let test_chaos_mutations_deterministic () =
  let entry = List.hd (Corpus.case_studies ()) in
  let apk = Lazy.force entry.Corpus.c_apk in
  let _, m1 = Chaos.mutate ~seed:7 apk in
  let _, m2 = Chaos.mutate ~seed:7 apk in
  check
    Alcotest.(list string)
    "same seed, same mutations"
    (List.map Chaos.mutation_name m1)
    (List.map Chaos.mutation_name m2)

let test_barrier_captures_crash_phase () =
  Resilience.Barrier.set_phase "init";
  match
    Resilience.Barrier.protect ~app:"boom" (fun () ->
        Resilience.Barrier.set_phase "pipeline.slicing";
        failwith "injected")
  with
  | Ok _ -> Alcotest.fail "expected a crash"
  | Error crash ->
      check Alcotest.string "app attributed" "boom"
        crash.Resilience.Barrier.cr_app;
      check Alcotest.string "phase attributed" "pipeline.slicing"
        crash.Resilience.Barrier.cr_phase;
      check Alcotest.bool "exception class captured" true
        (String.length crash.Resilience.Barrier.cr_exn > 0)

let () =
  Alcotest.run "robustness"
    [
      ( "termination",
        [
          tc "direct recursion" test_direct_recursion_terminates;
          tc "mutual recursion" test_mutual_recursion_terminates;
          tc "infinite loop widened" test_infinite_loop_bounded;
          tc "deep call chain" test_deep_call_chain_bounded;
        ] );
      ( "degenerate apps",
        [
          tc "empty app" test_empty_app;
          tc "no entries" test_app_without_entries;
          tc "unreachable code" test_unreachable_code_ignored;
        ] );
      ( "runtime failures",
        [
          tc "error responses" test_runtime_error_responses;
          tc "malformed uri" test_runtime_malformed_uri;
        ] );
      ( "resource governance",
        [
          tc "step fuel trips and sticks" test_budget_step_fuel;
          tc "deadline under a manual clock" test_budget_deadline_manual_clock;
          tc "depth clipping is not sticky" test_budget_depth_not_sticky;
          tc "ledger coalesces repeats" test_degrade_ledger_coalesces;
          tc "starved pipeline degrades" test_starved_pipeline_degrades;
          tc "default limits are invisible" test_default_limits_do_not_degrade;
          tc "degradations in report JSON" test_degradations_in_report_json;
          tc "standalone engines unchanged"
            test_standalone_engines_keep_historical_bounds;
        ] );
      ( "chaos",
        [
          tc "mutants never raise" test_chaos_mutants_never_raise;
          tc "mutation is deterministic" test_chaos_mutations_deterministic;
          tc "barrier attributes crashes" test_barrier_captures_crash_phase;
        ] );
    ]
