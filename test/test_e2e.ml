(* End-to-end tests against the paper's evaluation claims: per-app static
   coverage equals Table 1's Extractocol column, dynamic coverage matches
   the spec-derived visibility sets, every captured supported request
   matches a static signature (§5.1 "signature validity"), case studies
   reproduce their tables, obfuscation does not change results, and the
   replay of §5.3 works. *)

module Ir = Extr_ir.Types
module Http = Extr_httpmodel.Http
module Apk = Extr_apk.Apk
module Strsig = Extr_siglang.Strsig
module Msgsig = Extr_siglang.Msgsig
module Regex = Extr_siglang.Regex
module Report = Extr_extractocol.Report
module Pipeline = Extr_extractocol.Pipeline
module Txn = Extr_extractocol.Txn
module Obfuscator = Extr_apk.Obfuscator
module Spec = Extr_corpus.Spec
module Synth = Extr_corpus.Synth
module Corpus = Extr_corpus.Corpus
module Case_studies = Extr_corpus.Case_studies
module Fuzz = Extr_fuzz.Fuzz
module Eval = Extr_eval.Eval
module Replay = Extr_eval.Replay

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* A representative subset of the corpus keeps the suite fast; the full
   sweep runs in the bench harness. *)
let sample_apps = [ "Diode"; "radio reddit"; "iFixIt"; "5miles"; "GEEK"; "Tumblr" ]

let sample_entries () =
  let entries = Corpus.table1 () in
  List.filter_map (fun n -> Corpus.find entries n) sample_apps

let evaluated =
  lazy (List.map (fun e -> (e.Corpus.c_app.Spec.a_name, Eval.evaluate e)) (sample_entries ()))

let eval_of name = List.assoc name (Lazy.force evaluated)

(* ------------------------------------------------------------------ *)
(* Coverage                                                           *)
(* ------------------------------------------------------------------ *)

let test_static_counts_match_table1 () =
  List.iter
    (fun (name, ae) ->
      match ae.Eval.ae_row with
      | None -> ()
      | Some r ->
          let c = Eval.coverage ae in
          let sg, sp, su, sd = c.Eval.cr_static in
          let tg, _, _ = r.Synth.t_get
          and tp, _, _ = r.Synth.t_post
          and tu, _, _ = r.Synth.t_put
          and td, _, _ = r.Synth.t_delete in
          check Alcotest.(list int) (name ^ " static per method")
            [ tg; tp; tu; td ] [ sg; sp; su; sd ];
          (* Table 1 is reproduced cell-exactly: the manual and
             auto/source series and the #Pair column match the paper
             rows too. *)
          let mg, mp, mu, md = c.Eval.cr_manual in
          let _, tmg, _ = r.Synth.t_get
          and _, tmp, _ = r.Synth.t_post
          and _, tmu, _ = r.Synth.t_put
          and _, tmd, _ = r.Synth.t_delete in
          check Alcotest.(list int) (name ^ " manual per method")
            [ tmg; tmp; tmu; tmd ] [ mg; mp; mu; md ];
          let ag, ap, au, ad = c.Eval.cr_auto in
          let _, _, tag = r.Synth.t_get
          and _, _, tap = r.Synth.t_post
          and _, _, tau = r.Synth.t_put
          and _, _, tad = r.Synth.t_delete in
          check Alcotest.(list int) (name ^ " auto/source per method")
            [ tag; tap; tau; tad ] [ ag; ap; au; ad ];
          check Alcotest.int (name ^ " pairs") r.Synth.t_pairs c.Eval.cr_pairs)
    (Lazy.force evaluated)

let test_dynamic_counts_match_spec () =
  List.iter
    (fun (name, ae) ->
      let spec_visible policy =
        Spec.dynamically_visible ae.Eval.ae_app ~policy
        |> List.map (fun e -> e.Spec.e_id)
        |> List.sort_uniq compare
      in
      check Alcotest.(list string) (name ^ " manual coverage")
        (spec_visible `Manual)
        (Fuzz.observed_endpoints ae.Eval.ae_manual);
      check Alcotest.(list string) (name ^ " auto coverage")
        (spec_visible `Auto)
        (Fuzz.observed_endpoints ae.Eval.ae_auto))
    (Lazy.force evaluated)

let test_signature_validity () =
  (* §5.1: all signatures with corresponding traffic generate a valid
     match. *)
  List.iter
    (fun (name, ae) ->
      let matched, total = Eval.signature_validity ae ae.Eval.ae_full in
      check Alcotest.int (name ^ " all supported traffic matches") total matched;
      check Alcotest.bool (name ^ " non-empty traffic") true (total > 0))
    (Lazy.force evaluated)

let test_static_beats_fuzzing_on_closed () =
  (* The headline Table-1 claim: summed over closed-source apps,
     Extractocol finds more unique messages than manual fuzzing, which
     finds more than automatic fuzzing.  (Per-app exceptions exist in the
     paper too — e.g. Tumblr's automatic run saw more GETs than the
     manual session.) *)
  let totals =
    List.fold_left
      (fun (s, m, a) (_, ae) ->
        if ae.Eval.ae_app.Spec.a_closed then begin
          let total (x, y, z, w) = x + y + z + w in
          let cov = Eval.coverage ae in
          ( s + total cov.Eval.cr_static,
            m + total cov.Eval.cr_manual,
            a + total cov.Eval.cr_auto )
        end
        else (s, m, a))
      (0, 0, 0) (Lazy.force evaluated)
  in
  let s, m, a = totals in
  check Alcotest.bool "static > manual (closed total)" true (s > m);
  check Alcotest.bool "manual > auto (closed total)" true (m > a)

(* ------------------------------------------------------------------ *)
(* Case studies                                                       *)
(* ------------------------------------------------------------------ *)

let case_report ?scope name =
  let entries = Corpus.case_studies () in
  let e = Option.get (Corpus.find entries name) in
  let options = { Pipeline.default_options with Pipeline.op_scope = scope } in
  (Pipeline.analyze ~options (Lazy.force e.Corpus.c_apk)).Pipeline.an_report

let test_radio_reddit_table3 () =
  let report = case_report "radio reddit" in
  check Alcotest.int "six transactions" 6 (List.length report.Report.rp_transactions);
  let find frag =
    List.find_opt
      (fun tr ->
        let flat =
          String.concat ""
            (String.split_on_char '\\'
               (Strsig.to_regex tr.Report.tr_request.Msgsig.rs_uri))
        in
        let rec has i =
          i + String.length frag <= String.length flat
          && (String.sub flat i (String.length frag) = frag || has (i + 1))
        in
        has 0)
      report.Report.rp_transactions
  in
  (* Save/unsave alternation in one signature. *)
  (match find "api/unsave" with
  | Some tr ->
      let r = Strsig.to_regex tr.Report.tr_request.Msgsig.rs_uri in
      check Alcotest.bool "alternation" true (String.contains r '|')
  | None -> Alcotest.fail "save transaction missing");
  (* The vote request depends on login's modhash and cookie. *)
  match find "api/vote" with
  | Some tr ->
      let dep_fields = List.map (fun d -> d.Txn.dep_to_field) tr.Report.tr_deps in
      check Alcotest.bool "uh dep" true (List.mem "query:uh" dep_fields);
      check Alcotest.bool "cookie dep" true (List.mem "header:Cookie" dep_fields)
  | None -> Alcotest.fail "vote transaction missing"

let test_ted_table4 () =
  let report = case_report "TED (case study)" in
  check Alcotest.int "eight transactions" 8 (List.length report.Report.rp_transactions);
  (* DB-mediated dependency: video fetch via db:talks. *)
  let db_mediated =
    List.exists
      (fun tr ->
        List.exists
          (fun (d : Txn.dep) -> d.Txn.dep_via = Some "db:talks")
          tr.Report.tr_deps)
      report.Report.rp_transactions
  in
  check Alcotest.bool "db-mediated dependency" true db_mediated;
  (* Figure 1: a dynamically-derived URI whose response feeds the player. *)
  let prefetch_chain =
    List.exists
      (fun tr ->
        tr.Report.tr_dynamic_uri
        && List.mem Msgsig.To_media_player tr.Report.tr_response.Msgsig.ps_consumers)
      report.Report.rp_transactions
  in
  check Alcotest.bool "figure-1 chain" true prefetch_chain

let test_kayak_table6_and_replay () =
  let report = case_report ~scope:"com.kayak" "Kayak (case study)" in
  (* The User-Agent header is identified (§5.3). *)
  let ua =
    List.exists
      (fun tr ->
        List.exists
          (fun (k, v) ->
            k = "User-Agent" && Strsig.to_regex v = "kayakandroidphone/8\\.1")
          tr.Report.tr_request.Msgsig.rs_headers)
      report.Report.rp_transactions
  in
  check Alcotest.bool "user-agent identified" true ua;
  check Alcotest.bool "replay retrieves fares" true
    (Replay.flight_search Case_studies.kayak report)

let test_diode_fig3 () =
  let ae = eval_of "Diode" in
  let listing =
    List.find
      (fun tr -> String.length (Strsig.to_regex tr.Report.tr_request.Msgsig.rs_uri) > 80)
      ae.Eval.ae_report.Report.rp_transactions
  in
  let regex = Strsig.to_regex listing.Report.tr_request.Msgsig.rs_uri in
  List.iter
    (fun s ->
      check Alcotest.bool ("listing matches " ^ s) true
        (Regex.string_matches ~pattern:regex s))
    [
      "http://www.reddit.com/search/.json?q=a&sort=top";
      "http://www.reddit.com/r/pics/new.json?&";
    ]

let test_shared_dp_fig5 () =
  let entries = Corpus.case_studies () in
  let e = Option.get (Corpus.find entries "SharedDP") in
  let apk = Lazy.force e.Corpus.c_apk in
  let report = (Pipeline.analyze apk).Pipeline.an_report in
  check Alcotest.int "two transactions from one DP" 2
    (List.length report.Report.rp_transactions);
  let merged =
    (Pipeline.analyze
       ~options:{ Pipeline.default_options with Pipeline.op_context_sensitive = false }
       apk)
      .Pipeline.an_report
  in
  check Alcotest.bool "context-insensitive merges" true
    (List.length merged.Report.rp_transactions < 2)

(* ------------------------------------------------------------------ *)
(* Obfuscation invariance (§5)                                        *)
(* ------------------------------------------------------------------ *)

let test_obfuscation_invariance () =
  let entries = Corpus.case_studies () in
  let e = Option.get (Corpus.find entries "radio reddit") in
  let apk = Lazy.force e.Corpus.c_apk in
  let plain = (Pipeline.analyze apk).Pipeline.an_report in
  let obf_apk, _ = Obfuscator.obfuscate apk in
  let obf = (Pipeline.analyze obf_apk).Pipeline.an_report in
  let sigs r =
    List.map
      (fun tr -> Fmt.str "%a" Msgsig.pp_request_sig tr.Report.tr_request)
      r.Report.rp_transactions
    |> List.sort compare
  in
  check Alcotest.(list string) "identical signatures under obfuscation"
    (sigs plain) (sigs obf)

let test_library_deobfuscation () =
  (* §3.4: when library code is obfuscated, pre-process to recover the
     identifier map by signature-pattern similarity.  The adversarial
     rename kills the analysis; de-obfuscation restores it exactly. *)
  let entries = Corpus.case_studies () in
  let e = Option.get (Corpus.find entries "radio reddit") in
  let apk = Lazy.force e.Corpus.c_apk in
  let plain = (Pipeline.analyze apk).Pipeline.an_report in
  let obf, truth = Obfuscator.obfuscate_libraries apk in
  let broken = (Pipeline.analyze obf).Pipeline.an_report in
  check Alcotest.int "obfuscated libraries defeat the models" 0
    (List.length broken.Report.rp_transactions);
  let restored, mapping = Extr_apk.Deobfuscator.deobfuscate obf in
  (* Every library class the app uses is recovered to its true name. *)
  List.iter
    (fun (c : Ir.cls) ->
      if c.Ir.c_library then begin
        let obf_name = Obfuscator.rename_class truth c.Ir.c_name in
        match List.assoc_opt obf_name mapping.Extr_apk.Deobfuscator.dm_classes with
        | Some known ->
            check Alcotest.string ("class " ^ obf_name) c.Ir.c_name known
        | None -> ()
      end)
    apk.Apk.program.Ir.p_classes;
  let rest = (Pipeline.analyze restored).Pipeline.an_report in
  let sigs r =
    List.map
      (fun tr -> Fmt.str "%a" Msgsig.pp_request_sig tr.Report.tr_request)
      r.Report.rp_transactions
    |> List.sort compare
  in
  check Alcotest.(list string) "analysis identical after de-obfuscation"
    (sigs plain) (sigs rest)

let test_multihop_async_iterations () =
  (* The §4 extension: a request part that crosses TWO asynchronous hops
     (handler 1 builds a literal fragment into field A; handler 2 derives
     field B from A; the click handler uses B).  One heuristic hop loses
     the hop-1 literal; two hops recover it. *)
  let module B = Extr_ir.Builder in
  let module Api = Extr_semantics.Api in
  let cls = "com.hop.Main" in
  let tim1 = "com.hop.T1" and tim2 = "com.hop.T2" and click = "com.hop.Click" in
  let act_ty = Ir.Obj cls in
  let fa = { Ir.fcls = cls; fname = "fa"; fty = Ir.Str } in
  let fb = { Ir.fcls = cls; fname = "fb"; fty = Ir.Str } in
  let holder_init c =
    B.mk_meth ~cls:c ~name:"<init>" ~params:[ B.local "a" act_ty ] ~ret:Ir.Void
      (fun b ->
        B.set_field b (Ir.this_var c)
          { Ir.fcls = c; fname = "act"; fty = act_ty }
          (Ir.Local (B.local "a" act_ty)))
  in
  let act_of b c =
    B.get_field b (Ir.this_var c) { Ir.fcls = c; fname = "act"; fty = act_ty }
  in
  let run1 =
    (* hop 2 source: fa = "zone=" + <input> *)
    B.mk_meth ~cls:tim1 ~name:"run" ~params:[] ~ret:Ir.Void (fun b ->
        let act = act_of b tim1 in
        let et = B.new_obj b Api.edit_text [] in
        let v =
          B.call_ret b Ir.Str
            (B.virtual_call ~ret:Ir.Str et Api.edit_text "getText" [])
        in
        let sb = B.new_obj b Api.string_builder [ B.vstr "zone=" ] in
        B.call b
          (B.virtual_call ~ret:(Ir.Obj Api.string_builder) sb Api.string_builder
             "append" [ B.vl v ]);
        let s =
          B.call_ret b Ir.Str
            (B.virtual_call ~ret:Ir.Str sb Api.string_builder "toString" [])
        in
        B.set_field b act fa (Ir.Local s))
  in
  let run2 =
    (* hop 1 source: fb = fa ^ "&v=2" *)
    B.mk_meth ~cls:tim2 ~name:"run" ~params:[] ~ret:Ir.Void (fun b ->
        let act = act_of b tim2 in
        let a = B.get_field b act fa in
        let sb = B.new_obj b Api.string_builder [] in
        B.call b
          (B.virtual_call ~ret:(Ir.Obj Api.string_builder) sb Api.string_builder
             "append" [ B.vl a ]);
        B.call b
          (B.virtual_call ~ret:(Ir.Obj Api.string_builder) sb Api.string_builder
             "append" [ B.vstr "&v=2" ]);
        let s =
          B.call_ret b Ir.Str
            (B.virtual_call ~ret:Ir.Str sb Api.string_builder "toString" [])
        in
        B.set_field b act fb (Ir.Local s))
  in
  let on_click =
    B.mk_meth ~cls:click ~name:"onClick"
      ~params:[ B.local "v" (Ir.Obj Api.view) ]
      ~ret:Ir.Void
      (fun b ->
        let act = act_of b click in
        let frag = B.get_field b act fb in
        let sb =
          B.new_obj b Api.string_builder [ B.vstr "http://hop.example/q?" ]
        in
        B.call b
          (B.virtual_call ~ret:(Ir.Obj Api.string_builder) sb Api.string_builder
             "append" [ B.vl frag ]);
        let url =
          B.call_ret b Ir.Str
            (B.virtual_call ~ret:Ir.Str sb Api.string_builder "toString" [])
        in
        let req = B.new_obj b Api.http_get [ B.vl url ] in
        let client = B.new_obj b Api.default_http_client [] in
        B.call b (B.virtual_call client Api.http_client "execute" [ B.vl req ]))
  in
  (* All three handlers are registered from DIFFERENT lifecycle methods,
     so no backward caller chain connects any two of them: only the
     setter-restart heuristic can bridge the hops, one field per pass. *)
  let on_start =
    B.mk_meth ~cls ~name:"onStart" ~params:[] ~ret:Ir.Void (fun b ->
        let this = Ir.this_var cls in
        let t = B.new_obj b Api.timer [] in
        let h1 = B.new_obj b tim1 [ Ir.Local this ] in
        B.call b (B.virtual_call t Api.timer "schedule" [ B.vl h1; B.vint 10 ]))
  in
  let on_create =
    B.mk_meth ~cls ~name:"onCreate" ~params:[] ~ret:Ir.Void (fun b ->
        let this = Ir.this_var cls in
        let t = B.new_obj b Api.timer [] in
        let h2 = B.new_obj b tim2 [ Ir.Local this ] in
        B.call b (B.virtual_call t Api.timer "schedule" [ B.vl h2; B.vint 20 ]))
  in
  let on_resume =
    B.mk_meth ~cls ~name:"onResume" ~params:[] ~ret:Ir.Void (fun b ->
        let this = Ir.this_var cls in
        let lsn = B.new_obj b click [ Ir.Local this ] in
        let view =
          B.call_ret b (Ir.Obj Api.view)
            (B.virtual_call ~ret:(Ir.Obj Api.view) this Api.activity
               "findViewById" [ B.vint 1 ])
        in
        B.call b (B.virtual_call view Api.view "setOnClickListener" [ B.vl lsn ]))
  in
  let mk_holder c super cb =
    B.mk_cls ~super
      ~fields:[ B.mk_field "act" act_ty ]
      c
      [ holder_init c; cb ]
  in
  let program =
    {
      Ir.p_classes =
        [
          B.mk_cls ~super:Api.activity
            ~fields:[ B.mk_field "fa" Ir.Str; B.mk_field "fb" Ir.Str ]
            cls [ on_create; on_resume; on_start ];
          mk_holder tim1 Api.timer_task run1;
          mk_holder tim2 Api.timer_task run2;
          mk_holder click Api.on_click_listener on_click;
        ];
      p_entries = [];
    }
  in
  let apk = Apk.make ~package:"com.hop" ~activities:[ cls ] program in
  let uri_of iterations =
    let options =
      { Pipeline.default_options with Pipeline.op_async_iterations = iterations }
    in
    let report = (Pipeline.analyze ~options apk).Pipeline.an_report in
    match report.Report.rp_transactions with
    | [ tr ] -> Strsig.to_regex tr.Report.tr_request.Msgsig.rs_uri
    | _ -> "?"
  in
  let one_hop = uri_of 1 in
  let two_hops = uri_of 3 in
  let has frag s =
    let rec go i =
      i + String.length frag <= String.length s
      && (String.sub s i (String.length frag) = frag || go (i + 1))
    in
    go 0
  in
  check Alcotest.bool "hop-2 literal missed with one iteration" false
    (has "zone=" one_hop);
  check Alcotest.bool "hop-2 literal recovered with iterations" true
    (has "zone=" two_hops)

(* ------------------------------------------------------------------ *)
(* Byte accounting sanity (Table 2)                                    *)
(* ------------------------------------------------------------------ *)

let test_reflection_extension () =
  (* §4 limitation lifted for the constant-string case: a fetcher class
     instantiated and invoked purely through java.lang.reflect still
     yields its transaction, both statically and at runtime. *)
  let module B = Extr_ir.Builder in
  let module Api = Extr_semantics.Api in
  let fetcher = "com.refl.Fetcher" in
  let main = "com.refl.Main" in
  let init =
    B.mk_meth ~cls:fetcher ~name:"<init>" ~params:[] ~ret:Ir.Void (fun _ -> ())
  in
  let fetch =
    B.mk_meth ~cls:fetcher ~name:"fetch" ~params:[] ~ret:Ir.Void (fun b ->
        let client = B.new_obj b Api.default_http_client [] in
        let req = B.new_obj b Api.http_get [ B.vstr "https://refl/api?k=1" ] in
        B.call b
          (B.virtual_call ~ret:(Ir.Obj Api.http_response) client Api.http_client
             "execute" [ B.vl req ]);
        B.return_void b)
  in
  let on_create =
    B.mk_meth ~cls:main ~name:"onCreate" ~params:[] ~ret:Ir.Void (fun b ->
        let c =
          B.call_ret b (Ir.Obj Api.java_class)
            (B.static_call ~ret:(Ir.Obj Api.java_class) Api.java_class "forName"
               [ B.vstr fetcher ])
        in
        let o =
          B.call_ret b
            (Ir.Obj "java.lang.Object")
            (B.virtual_call ~ret:(Ir.Obj "java.lang.Object") c Api.java_class
               "newInstance" [])
        in
        let m =
          B.call_ret b (Ir.Obj Api.reflect_method)
            (B.virtual_call ~ret:(Ir.Obj Api.reflect_method) c Api.java_class
               "getMethod" [ B.vstr "fetch" ])
        in
        B.call b
          (B.virtual_call m Api.reflect_method "invoke" [ B.vl o ]);
        B.return_void b)
  in
  let apk =
    Apk.make ~package:"com.refl" ~activities:[ main ]
      {
        Ir.p_classes =
          [
            B.mk_cls fetcher [ init; fetch ];
            B.mk_cls ~super:Api.activity main [ on_create ];
          ]
          @ Api.library_classes;
        p_entries = [];
      }
  in
  (* Static extraction through the reflective call. *)
  let report = (Pipeline.analyze apk).Pipeline.an_report in
  (match report.Report.rp_transactions with
  | [ tr ] ->
      check Alcotest.string "reflective URI extracted"
        "https://refl/api\\?k=1"
        (Strsig.to_regex tr.Report.tr_request.Msgsig.rs_uri)
  | txs -> Alcotest.failf "expected 1 transaction, got %d" (List.length txs));
  (* Concrete execution through the same reflection. *)
  let net (req : Http.request) =
    check Alcotest.string "runtime reflective request"
      "https://refl/api?k=1"
      (Extr_httpmodel.Uri.to_string req.Http.req_uri);
    Http.response (Http.Text "ok")
  in
  let rt = Extr_runtime.Runtime.create ~net ~input:(fun () -> "") apk in
  ignore (Extr_runtime.Runtime.launch rt);
  check Alcotest.int "runtime fired the reflective fetch" 1
    (List.length (Extr_runtime.Runtime.captured_trace rt).Http.tr_entries)

let test_intent_resolution_extension () =
  (* §4 extension: intent-carried requests are missed under the paper
     configuration (deliberately) and recovered with op_intents. *)
  let entries = Corpus.table1 () in
  let e =
    Option.get
      (List.find_opt
         (fun (e : Corpus.entry) ->
           List.exists
             (fun (ep : Spec.endpoint) -> not ep.Spec.e_supported)
             e.Corpus.c_app.Spec.a_endpoints)
         entries)
  in
  let apk = Lazy.force e.Corpus.c_apk in
  let base =
    if e.Corpus.c_app.Spec.a_closed then Pipeline.default_options
    else Pipeline.open_source_options
  in
  let count ?(apk = apk) options =
    List.length
      (Pipeline.analyze ~options apk).Pipeline.an_report.Report.rp_transactions
  in
  let supported =
    List.length (Spec.statically_visible e.Corpus.c_app)
  in
  let total = List.length e.Corpus.c_app.Spec.a_endpoints in
  check Alcotest.int "paper config misses intent endpoints" supported
    (count base);
  check Alcotest.int "intent resolution recovers them" total
    (count { base with Pipeline.op_intents = true });
  (* Obfuscation keeps the service's class and handler names, which the
     dispatch finds by the intent's action string. *)
  let obfuscated = fst (Obfuscator.obfuscate apk) in
  check Alcotest.int "also on the obfuscated app" total
    (count ~apk:obfuscated { base with Pipeline.op_intents = true })

let test_byte_accounting_sums () =
  let ae = eval_of "radio reddit" in
  let req, resp = Eval.byte_accounting ae ae.Eval.ae_full in
  check Alcotest.bool "request bytes classified" true
    (req.Eval.ba_k + req.Eval.ba_v + req.Eval.ba_n > 0);
  check Alcotest.bool "response bytes classified" true
    (resp.Eval.ba_k + resp.Eval.ba_v + resp.Eval.ba_n > 0);
  let k, v, n = Eval.account_percentages req in
  check (Alcotest.float 0.01) "percentages sum to 100" 100.0 (k +. v +. n)

(* ------------------------------------------------------------------ *)
(* Keyword shape (Figure 7)                                           *)
(* ------------------------------------------------------------------ *)

let test_response_keywords_subset_of_traffic () =
  (* The signature covers exactly the keys the app inspects, which is a
     subset of what is on the wire (§5.1). *)
  let ae = eval_of "radio reddit" in
  let static = Eval.static_keywords ae in
  let traffic = Eval.trace_keywords ae.Eval.ae_full in
  check Alcotest.bool "response keywords: signature <= traffic" true
    (static.Eval.kc_response <= traffic.Eval.kc_response)

let () =
  Alcotest.run "e2e"
    [
      ( "coverage",
        [
          tc "static matches table 1" test_static_counts_match_table1;
          tc "dynamic matches spec" test_dynamic_counts_match_spec;
          tc "signature validity" test_signature_validity;
          tc "static beats fuzzing" test_static_beats_fuzzing_on_closed;
        ] );
      ( "case-studies",
        [
          tc "radio reddit (table 3)" test_radio_reddit_table3;
          tc "TED (table 4, fig 1)" test_ted_table4;
          tc "Kayak (table 6, replay)" test_kayak_table6_and_replay;
          tc "Diode (fig 3)" test_diode_fig3;
          tc "SharedDP (fig 5)" test_shared_dp_fig5;
        ] );
      ( "robustness",
        [
          tc "obfuscation invariance" test_obfuscation_invariance;
          tc "library deobfuscation" test_library_deobfuscation;
          tc "multi-hop async iterations" test_multihop_async_iterations;
          tc "reflection extension" test_reflection_extension;
          tc "intent resolution extension" test_intent_resolution_extension;
          tc "byte accounting sums" test_byte_accounting_sums;
          tc "keywords subset" test_response_keywords_subset_of_traffic;
        ] );
    ]
