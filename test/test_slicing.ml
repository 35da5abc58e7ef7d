(* Slicing tests: demarcation-point discovery, request/response slices,
   object-aware augmentation, slice fractions, scoping, and the
   asynchronous-event heuristic at the slicing level. *)

module Ir = Extr_ir.Types
module B = Extr_ir.Builder
module Prog = Extr_ir.Prog
module Callgraph = Extr_cfg.Callgraph
module Api = Extr_semantics.Api
module Callbacks = Extr_semantics.Callbacks
module Demarcation = Extr_semantics.Demarcation
module Slicer = Extr_slicing.Slicer
module Pipeline = Extr_extractocol.Pipeline
module Corpus = Extr_corpus.Corpus
module Spec = Extr_corpus.Spec
module Apk = Extr_apk.Apk
module Index = Extr_ir.Index
module Pairing = Extr_extractocol.Pairing
module Fact = Extr_taint.Fact
module Backward = Extr_taint.Backward
module Metrics = Extr_telemetry.Metrics

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(** Activity with one Apache GET, one noise method. *)
let fixture () =
  let cls = "com.t.A" in
  let fetch =
    B.mk_meth ~cls ~name:"fetch" ~params:[] ~ret:Ir.Void (fun b ->
        let sb = B.new_obj b Api.string_builder [ B.vstr "http://h/a?x=" ] in
        let piece = B.define b Ir.Str (Ir.Val (B.vstr "1")) in
        B.call b
          (B.virtual_call ~ret:(Ir.Obj Api.string_builder) sb Api.string_builder
             "append" [ B.vl piece ]);
        let url =
          B.call_ret b Ir.Str
            (B.virtual_call ~ret:Ir.Str sb Api.string_builder "toString" [])
        in
        let req = B.new_obj b Api.http_get [ B.vl url ] in
        let client = B.new_obj b Api.default_http_client [] in
        let resp =
          B.call_ret b (Ir.Obj Api.http_response)
            (B.virtual_call ~ret:(Ir.Obj Api.http_response) client Api.http_client
               "execute" [ B.vl req ])
        in
        let entity =
          B.call_ret b (Ir.Obj Api.http_entity)
            (B.virtual_call ~ret:(Ir.Obj Api.http_entity) resp Api.http_response
               "getEntity" [])
        in
        let body =
          B.call_ret b Ir.Str
            (B.static_call ~ret:Ir.Str Api.entity_utils "toString" [ B.vl entity ])
        in
        let tv = B.new_obj b Api.text_view [] in
        B.call b (B.virtual_call tv Api.text_view "setText" [ B.vl body ]))
  in
  let noise =
    B.mk_meth ~cls ~name:"noise" ~params:[] ~ret:Ir.Void (fun b ->
        let a = B.define b Ir.Int (Ir.Val (B.vint 1)) in
        let c = B.define b Ir.Int (Ir.Binop (Ir.Mul, B.vl a, B.vint 3)) in
        ignore c)
  in
  let on_create =
    B.mk_meth ~cls ~name:"onCreate" ~params:[] ~ret:Ir.Void (fun b ->
        B.call b (B.virtual_call (Ir.this_var cls) cls "fetch" []);
        B.call b (B.virtual_call (Ir.this_var cls) cls "noise" []))
  in
  let program =
    {
      Ir.p_classes =
        B.mk_cls ~super:Api.activity cls [ on_create; fetch; noise ]
        :: Api.library_classes;
      p_entries = [];
    }
  in
  let prog = Prog.of_program program in
  let cg =
    Callgraph.lazy_build ~callback_resolver:Callbacks.resolve
      ~callback_triggers:Callbacks.trigger_names prog
  in
  (prog, cg)

let test_dp_discovery () =
  let _, cg = fixture () in
  let dps = Slicer.find_demarcation_points (Callgraph.index cg) in
  check Alcotest.int "one demarcation point" 1 (List.length dps);
  match dps with
  | [ dp ] ->
      check Alcotest.string "it is the execute call"
        "HttpClient.execute(HttpUriRequest)"
        dp.Slicer.dp_info.Demarcation.dp_desc
  | _ -> ()

let test_dp_scope_filter () =
  let _, cg = fixture () in
  let ix = Callgraph.index cg in
  check Alcotest.int "scope excludes" 0
    (List.length (Slicer.find_demarcation_points ~scope:"com.other" ix));
  check Alcotest.int "scope includes" 1
    (List.length (Slicer.find_demarcation_points ~scope:"com.t" ix))

let test_request_slice_contains_uri_code () =
  let prog, cg = fixture () in
  let slices = Slicer.run prog cg in
  match slices.Slicer.r_request with
  | [ sl ] ->
      (* The slice must include statements of fetch building the URI: at
         minimum the StringBuilder init/append and HttpGet init. *)
      check Alcotest.bool "non-trivial request slice" true
        (Ir.Stmt_set.cardinal sl.Slicer.sl_stmts >= 4)
  | _ -> Alcotest.fail "expected one request slice"

let test_response_slice_nonempty () =
  let prog, cg = fixture () in
  let slices = Slicer.run prog cg in
  match slices.Slicer.r_response with
  | [ sl ] ->
      check Alcotest.bool "response processing sliced" true
        (Ir.Stmt_set.cardinal sl.Slicer.sl_stmts >= 2)
  | _ -> Alcotest.fail "expected one response slice"

let test_noise_excluded () =
  let prog, cg = fixture () in
  let slices = Slicer.run prog cg in
  let union =
    List.fold_left
      (fun acc sl -> Ir.Stmt_set.union acc sl.Slicer.sl_stmts)
      Ir.Stmt_set.empty
      (slices.Slicer.r_request @ slices.Slicer.r_response)
  in
  let noise_mid = { Ir.id_cls = "com.t.A"; id_name = "noise" } in
  check Alcotest.bool "noise method untouched" false
    (Ir.Stmt_set.exists (fun s -> Ir.Method_id.equal s.Ir.sid_meth noise_mid) union)

let test_slice_fraction_below_one () =
  let prog, cg = fixture () in
  let slices = Slicer.run prog cg in
  let f = Slicer.slice_fraction slices in
  check Alcotest.bool "fraction in (0,1)" true (f > 0.0 && f < 1.0)

let test_augmentation_monotone () =
  let prog, cg = fixture () in
  let with_aug =
    Slicer.run ~options:{ Slicer.default_options with Slicer.opt_augmentation = true }
      prog cg
  in
  let without =
    Slicer.run
      ~options:{ Slicer.default_options with Slicer.opt_augmentation = false }
      prog cg
  in
  let size r =
    List.fold_left
      (fun acc sl -> acc + Ir.Stmt_set.cardinal sl.Slicer.sl_stmts)
      0 r.Slicer.r_response
  in
  check Alcotest.bool "augmentation only adds" true (size with_aug >= size without)

let test_diode_fraction_near_paper () =
  (* Figure 3: Diode's slices are 6.3% of the code; ours must land in the
     same ballpark. *)
  let entry = Option.get (Corpus.find (Corpus.case_studies ()) "Diode") in
  let apk = Lazy.force entry.Corpus.c_apk in
  let analysis = Pipeline.analyze ~options:Pipeline.open_source_options apk in
  let f = analysis.Pipeline.an_report.Extr_extractocol.Report.rp_slice_fraction in
  check Alcotest.bool "between 3% and 12%" true (f > 0.03 && f < 0.12)

(* Every demarcation-point class in the registry is discovered from a
   one-call program (the paper models 39 DPs over 16 classes; here each
   registry family gets a probe). *)
let dp_probe build =
  let cls = "com.t.Probe" in
  let m = B.mk_meth ~cls ~name:"go" ~params:[] ~ret:Ir.Void build in
  let prog =
    Prog.of_program
      {
        Ir.p_classes = B.mk_cls cls [ m ] :: Api.library_classes;
        p_entries = [];
      }
  in
  List.length (Slicer.find_demarcation_points (Extr_ir.Index.build prog))

let test_dp_registry_families () =
  check Alcotest.int "apache execute" 1
    (dp_probe (fun b ->
         let c = B.new_obj b Api.default_http_client [] in
         let r = B.new_obj b Api.http_get [ B.vstr "http://h/" ] in
         B.call b
           (B.virtual_call ~ret:(Ir.Obj Api.http_response) c Api.http_client
              "execute" [ B.vl r ])));
  check Alcotest.int "urlconn getInputStream" 1
    (dp_probe (fun b ->
         let u = B.new_obj b Api.java_url [ B.vstr "http://h/" ] in
         let conn =
           B.call_ret b
             (Ir.Obj Api.http_url_connection)
             (B.virtual_call
                ~ret:(Ir.Obj Api.http_url_connection)
                u Api.java_url "openConnection" [])
         in
         ignore
           (B.call_ret b (Ir.Obj Api.input_stream)
              (B.virtual_call ~ret:(Ir.Obj Api.input_stream) conn
                 Api.http_url_connection "getInputStream" []))));
  check Alcotest.int "volley add" 1
    (dp_probe (fun b ->
         let q = B.new_obj b Api.request_queue [] in
         let lsn = B.define b (Ir.Obj Api.volley_listener) (Ir.Val B.vnull) in
         let r =
           B.new_obj b Api.string_request
             [ B.vstr "GET"; B.vstr "http://h/"; B.vl lsn ]
         in
         B.call b (B.virtual_call q Api.request_queue "add" [ B.vl r ])));
  check Alcotest.int "okhttp execute" 1
    (dp_probe (fun b ->
         let c = B.new_obj b Api.okhttp_client [] in
         let call =
           B.call_ret b (Ir.Obj Api.okhttp_call)
             (B.virtual_call ~ret:(Ir.Obj Api.okhttp_call) c Api.okhttp_client
                "newCall" [ B.vnull ])
         in
         ignore
           (B.call_ret b (Ir.Obj Api.okhttp_response)
              (B.virtual_call
                 ~ret:(Ir.Obj Api.okhttp_response)
                 call Api.okhttp_call "execute" []))));
  check Alcotest.int "media player" 1
    (dp_probe (fun b ->
         let mp = B.new_obj b Api.media_player [] in
         B.call b
           (B.virtual_call mp Api.media_player "setDataSource"
              [ B.vstr "http://h/s" ])));
  check Alcotest.int "raw socket" 1
    (dp_probe (fun b ->
         let sk = B.new_obj b Api.java_socket [ B.vstr "h"; B.vint 80 ] in
         ignore
           (B.call_ret b (Ir.Obj Api.input_stream)
              (B.virtual_call ~ret:(Ir.Obj Api.input_stream) sk Api.java_socket
                 "getInputStream" []))));
  check Alcotest.int "no DP in plain code" 0
    (dp_probe (fun b ->
         let sb = B.new_obj b Api.string_builder [] in
         ignore
           (B.call_ret b Ir.Str
              (B.virtual_call ~ret:Ir.Str sb Api.string_builder "toString" []))))

let test_request_response_slices_disjoint_roles () =
  (* The request slice contains the URI construction; the response slice
     contains the parse/display statements; both contain the DP. *)
  let prog, cg = fixture () in
  let r = Slicer.run prog cg in
  match (r.Slicer.r_request, r.Slicer.r_response) with
  | [ req ], [ resp ] ->
      let dp = (List.hd r.Slicer.r_dps).Slicer.dp_stmt in
      check Alcotest.bool "dp in request slice" true
        (Ir.Stmt_set.mem dp req.Slicer.sl_stmts);
      check Alcotest.bool "dp in response slice" true
        (Ir.Stmt_set.mem dp resp.Slicer.sl_stmts);
      check Alcotest.bool "slices overlap only partially" true
        (not (Ir.Stmt_set.equal req.Slicer.sl_stmts resp.Slicer.sl_stmts))
  | _, _ -> Alcotest.fail "expected exactly one slice pair"

let test_all_dp_stats () =
  let n_dps, n_classes = Demarcation.stats () in
  check Alcotest.bool "registry populated" true (n_dps >= 6 && n_classes >= 5)

(* ------------------------------------------------------------------ *)
(* Golden digests                                                     *)
(* ------------------------------------------------------------------ *)

let show_mid (m : Ir.method_id) = m.Ir.id_cls ^ "." ^ m.Ir.id_name

let show_sid (s : Ir.stmt_id) =
  Printf.sprintf "%s:%d" (show_mid s.Ir.sid_meth) s.Ir.sid_idx

let show_stmts set =
  String.concat " " (List.map show_sid (Ir.Stmt_set.elements set))

let graph_of (apk : Apk.t) =
  let prog =
    Prog.of_program (Pipeline.with_library_classes apk.Apk.program)
  in
  ( prog,
    Callgraph.lazy_build ~callback_resolver:Callbacks.resolve
      ~callback_triggers:Callbacks.trigger_names prog )

let digest_lines f entries =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (e : Corpus.entry) ->
      let prog, cg = graph_of (Lazy.force e.Corpus.c_apk) in
      f buf e prog cg)
    entries;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Every DP's request slice (DP statement plus its sorted statements),
   with the §3.4 heuristic off and on, over 89 apps: the case studies,
   Table 1 and [generated ~seed:1 ~count:50].  Computed with one
   backward engine per DP, before the engine was batched; any change to
   how facts are tagged with the DPs they serve moves it. *)
let test_golden_request_slices () =
  let lines buf _ prog cg =
    List.iter
      (fun async ->
        let options =
          {
            Slicer.default_options with
            Slicer.opt_async_heuristic = async;
            opt_augmentation = false;
          }
        in
        List.iter
          (fun (sl : Slicer.slice) ->
            Buffer.add_string buf
              (Printf.sprintf "%b %s: %s\n" async
                 (show_sid sl.Slicer.sl_dp.Slicer.dp_stmt)
                 (show_stmts sl.Slicer.sl_stmts)))
          (Slicer.run ~options prog cg).Slicer.r_request)
      [ false; true ]
  in
  check Alcotest.string "request slices of 89 apps"
    "168f70f2859259d1c4d7952365d41cb9"
    (digest_lines lines
       (Corpus.case_studies () @ Corpus.table1 ()
       @ Corpus.generated ~seed:1 ~count:50))

(* Every disjoint pair (DP, head, both segments) of the case studies and
   Table 1, each app under its pipeline configuration (§3.4 heuristic on
   for closed-source apps).  Computed before pairing was keyed by DP. *)
let test_golden_pairs () =
  let lines buf (e : Corpus.entry) prog cg =
    let options =
      {
        Slicer.default_options with
        Slicer.opt_async_heuristic = e.Corpus.c_app.Spec.a_closed;
      }
    in
    List.iter
      (fun (p : Pairing.pair) ->
        Buffer.add_string buf
          (Printf.sprintf "%s %s\n req: %s\n resp: %s\n"
             (show_sid p.Pairing.pr_dp.Slicer.dp_stmt)
             (show_mid p.Pairing.pr_head)
             (show_stmts p.Pairing.pr_request_segment)
             (show_stmts p.Pairing.pr_response_segment)))
      (Pairing.pair_disjoint prog cg (Slicer.run ~options prog cg))
  in
  check Alcotest.string "pairs of 39 apps" "ddcbbf23246a1fbada356e6e9b3930ee"
    (digest_lines lines (Corpus.case_studies () @ Corpus.table1 ()))

(* Every DP's response slice (DP statement plus its sorted statements),
   with object-aware augmentation off and on, over the same 89 apps: the
   forward engines' only direct golden (the pairs digest sees them
   through pair segments alone).  Computed while the forward engine
   kept its state in hash tables keyed by method and statement, before
   it moved to one record per method. *)
let test_golden_response_slices () =
  let lines buf _ prog cg =
    List.iter
      (fun aug ->
        let options =
          { Slicer.default_options with Slicer.opt_augmentation = aug }
        in
        List.iter
          (fun (sl : Slicer.slice) ->
            Buffer.add_string buf
              (Printf.sprintf "%b %s: %s\n" aug
                 (show_sid sl.Slicer.sl_dp.Slicer.dp_stmt)
                 (show_stmts sl.Slicer.sl_stmts)))
          (Slicer.run ~options prog cg).Slicer.r_response)
      [ false; true ]
  in
  check Alcotest.string "response slices of 89 apps"
    "c89c71cd228a254e624c3992bad01032"
    (digest_lines lines
       (Corpus.case_studies () @ Corpus.table1 ()
       @ Corpus.generated ~seed:1 ~count:50))

(* ------------------------------------------------------------------ *)
(* Object-aware augmentation against a whole-body rescan               *)
(* ------------------------------------------------------------------ *)

(* The reference: per method, rescan the whole body for the variables and
   fields the included statements read, then for the statements defining
   them, until a rescan adds nothing. *)
let rescan_augment prog (stmts : Ir.Stmt_set.t) =
  let included = ref stmts in
  Ir.Method_set.iter
    (fun mid ->
      match Prog.find_method prog mid with
      | None -> ()
      | Some m ->
          let changed = ref true in
          while !changed do
            changed := false;
            let used_vars = Hashtbl.create 16 and used_fields = Hashtbl.create 16 in
            Array.iteri
              (fun idx stmt ->
                if Ir.Stmt_set.mem { Ir.sid_meth = mid; sid_idx = idx } !included
                then begin
                  List.iter
                    (fun (v : Ir.var) -> Hashtbl.replace used_vars v.Ir.vname ())
                    (Ir.stmt_uses stmt);
                  match stmt with
                  | Ir.Assign (_, Ir.IField (_, f)) ->
                      Hashtbl.replace used_fields (f.Ir.fcls, f.Ir.fname) ()
                  | _ -> ()
                end)
              m.Ir.m_body;
            Array.iteri
              (fun idx stmt ->
                let sid = { Ir.sid_meth = mid; sid_idx = idx } in
                let defines_used =
                  match Ir.stmt_def stmt with
                  | Some v -> Hashtbl.mem used_vars v.Ir.vname
                  | None -> (
                      match stmt with
                      | Ir.Assign (Ir.Lfield (_, f), _) ->
                          Hashtbl.mem used_fields (f.Ir.fcls, f.Ir.fname)
                      | Ir.InvokeStmt { Ir.ibase = Some b; _ } ->
                          Hashtbl.mem used_vars b.Ir.vname
                      | _ -> false)
                in
                if defines_used && not (Ir.Stmt_set.mem sid !included) then begin
                  included := Ir.Stmt_set.add sid !included;
                  changed := true
                end)
              m.Ir.m_body
          done)
    (Ir.Stmt_set.fold
       (fun sid acc -> Ir.Method_set.add sid.Ir.sid_meth acc)
       stmts Ir.Method_set.empty);
  !included

let test_augmentation_equals_rescan () =
  List.iter
    (fun (e : Corpus.entry) ->
      let prog, cg = graph_of (Lazy.force e.Corpus.c_apk) in
      let response aug =
        (Slicer.run
           ~options:{ Slicer.default_options with Slicer.opt_augmentation = aug }
           prog cg)
          .Slicer.r_response
      in
      List.iter2
        (fun (plain : Slicer.slice) (augmented : Slicer.slice) ->
          check Alcotest.string
            (Printf.sprintf "%s: augmented slice of %s" e.Corpus.c_app.Spec.a_name
               (show_sid plain.Slicer.sl_dp.Slicer.dp_stmt))
            (show_stmts (rescan_augment prog plain.Slicer.sl_stmts))
            (show_stmts augmented.Slicer.sl_stmts))
        (response false) (response true))
    (Corpus.case_studies () @ Corpus.table1 ()
    @ Corpus.generated ~seed:1 ~count:50)

(* ------------------------------------------------------------------ *)
(* One backward engine for every DP                                   *)
(* ------------------------------------------------------------------ *)

(* The reference: one engine for one DP, through the one-DP API, with the
   §3.4 heuristic restarting from the setters of every field fact the DP
   carries until its fields stop changing or its hops run out. *)
let single_request_slice ~iterations prog cg (dp : Slicer.dp_site) =
  let engine = Backward.create prog cg in
  let root =
    match dp.Slicer.dp_info.Demarcation.dp_request with
    | Demarcation.Arg i -> (
        match List.nth_opt dp.Slicer.dp_invoke.Ir.iargs i with
        | Some (Ir.Local v) -> Some v
        | Some (Ir.Const _) | None -> None)
    | Demarcation.Recv -> dp.Slicer.dp_invoke.Ir.ibase
  in
  let dp_sid = dp.Slicer.dp_stmt in
  Option.iter
    (fun v -> Backward.inject_at engine dp_sid [ Fact.local dp_sid.Ir.sid_meth v ])
    root;
  Backward.run engine;
  let rec iterate hops known =
    let fields =
      List.sort_uniq compare (Fact.field_facts (Backward.all_facts engine))
    in
    if hops > 0 && fields <> known then begin
      List.iter
        (fun (st : Index.store) ->
          Backward.inject_at engine st.Index.fs_stmt
            [
              Fact.local_path st.Index.fs_stmt.Ir.sid_meth st.Index.fs_var
                st.Index.fs_field.Ir.fname;
            ])
        (List.concat_map (Index.field_stores (Callgraph.index cg)) fields);
      Backward.run engine;
      iterate (hops - 1) fields
    end
  in
  iterate (max 1 iterations) [];
  Ir.Stmt_set.add dp_sid (Backward.touched_stmts engine)

let backward_facts () =
  List.fold_left
    (fun n (s : Metrics.sample) ->
      if s.Metrics.sa_name = "taint.backward.facts" then n + s.Metrics.sa_count
      else n)
    0
    (Metrics.snapshot Metrics.default)

(* Run [f] with metrics on and return its [taint.backward.facts]. *)
let counting_facts f =
  Metrics.set_enabled Metrics.default true;
  Metrics.reset Metrics.default;
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled Metrics.default false)
    (fun () ->
      let r = f () in
      (r, backward_facts ()))

(* Each DP's slice from the batched engine against the DP's own engine,
   and the facts counter against the sum of the single runs. *)
let check_batched_equals_single ~iterations name prog cg =
  let options =
    {
      Slicer.default_options with
      Slicer.opt_async_heuristic = true;
      opt_async_iterations = iterations;
      opt_augmentation = false;
    }
  in
  let batched, batched_facts =
    counting_facts (fun () -> (Slicer.run ~options prog cg).Slicer.r_request)
  in
  let singles, single_facts =
    counting_facts (fun () ->
        List.map
          (fun (sl : Slicer.slice) ->
            single_request_slice ~iterations prog cg sl.Slicer.sl_dp)
          batched)
  in
  List.iter2
    (fun (sl : Slicer.slice) single ->
      check Alcotest.string
        (Printf.sprintf "%s, %d hops: slice of %s" name iterations
           (show_sid sl.Slicer.sl_dp.Slicer.dp_stmt))
        (show_stmts single) (show_stmts sl.Slicer.sl_stmts))
    batched singles;
  check Alcotest.int
    (Printf.sprintf "%s, %d hops: facts counter" name iterations)
    single_facts batched_facts

let test_batched_equals_single () =
  List.iter
    (fun (e : Corpus.entry) ->
      let prog, cg = graph_of (Lazy.force e.Corpus.c_apk) in
      List.iter
        (fun iterations ->
          check_batched_equals_single ~iterations e.Corpus.c_app.Spec.a_name
            prog cg)
        [ 1; 3 ])
    (Corpus.case_studies () @ Corpus.table1 ()
    @ Corpus.generated ~seed:1 ~count:50
    @ Corpus.generated ~seed:3 ~count:50)

(* Two DPs whose request parts cross a different number of asynchronous
   hops, sent one after the other from the same task, so the backward
   flow of the second crosses the statements of the first.  DP [deep]
   sends field [fb]; [fb] is derived from [fa] in one timer task and
   [fa] is built from a literal in another, so the heuristic needs two
   hops to reach the literal.  DP [shallow] sends field [fc], set in a
   third task: one hop.  No caller chain connects any two handlers, so
   only setter restarts bridge them. *)
let hops_program () =
  let cls = "com.hop.Main" in
  let act_ty = Ir.Obj cls in
  let field name = { Ir.fcls = cls; fname = name; fty = Ir.Str } in
  let holder_field c = { Ir.fcls = c; fname = "act"; fty = act_ty } in
  let holder_init c =
    B.mk_meth ~cls:c ~name:"<init>" ~params:[ B.local "a" act_ty ] ~ret:Ir.Void
      (fun b ->
        B.set_field b (Ir.this_var c) (holder_field c)
          (Ir.Local (B.local "a" act_ty)))
  in
  let act_of b c = B.get_field b (Ir.this_var c) (holder_field c) in
  let concat b parts =
    let sb = B.new_obj b Api.string_builder [] in
    List.iter
      (fun v ->
        B.call b
          (B.virtual_call ~ret:(Ir.Obj Api.string_builder) sb Api.string_builder
             "append" [ v ]))
      parts;
    B.call_ret b Ir.Str
      (B.virtual_call ~ret:Ir.Str sb Api.string_builder "toString" [])
  in
  (* [task c body]: a timer task class whose run() gets the activity. *)
  let task c body =
    B.mk_cls ~super:Api.timer_task
      ~fields:[ B.mk_field "act" act_ty ]
      c
      [
        holder_init c;
        B.mk_meth ~cls:c ~name:"run" ~params:[] ~ret:Ir.Void (fun b ->
            body b (act_of b c));
      ]
  in
  let send b url =
    let req = B.new_obj b Api.http_get [ B.vl url ] in
    let client = B.new_obj b Api.default_http_client [] in
    B.call b (B.virtual_call client Api.http_client "execute" [ B.vl req ])
  in
  let schedule name task_cls =
    B.mk_meth ~cls ~name ~params:[] ~ret:Ir.Void (fun b ->
        let t = B.new_obj b Api.timer [] in
        let h = B.new_obj b task_cls [ Ir.Local (Ir.this_var cls) ] in
        B.call b (B.virtual_call t Api.timer "schedule" [ B.vl h; B.vint 10 ]))
  in
  let classes =
    [
      B.mk_cls ~super:Api.activity
        ~fields:
          [ B.mk_field "fa" Ir.Str; B.mk_field "fb" Ir.Str; B.mk_field "fc" Ir.Str ]
        cls
        [
          schedule "onStart" "com.hop.A";
          schedule "onCreate" "com.hop.B";
          schedule "onResume" "com.hop.C";
          schedule "onPause" "com.hop.Send";
        ];
      task "com.hop.A" (fun b act ->
          B.set_field b act (field "fa")
            (Ir.Local (concat b [ B.vstr "zone=" ])));
      task "com.hop.B" (fun b act ->
          let a = B.get_field b act (field "fa") in
          B.set_field b act (field "fb")
            (Ir.Local (concat b [ B.vl a; B.vstr "&v=2" ])));
      task "com.hop.C" (fun b act ->
          B.set_field b act (field "fc")
            (Ir.Local (concat b [ B.vstr "page=1" ])));
      task "com.hop.Send" (fun b act ->
          let deep = B.get_field b act (field "fb") in
          send b (concat b [ B.vstr "http://hop.example/deep?"; B.vl deep ]);
          let shallow = B.get_field b act (field "fc") in
          send b (concat b [ B.vstr "http://hop.example/shallow?"; B.vl shallow ]));
    ]
  in
  let prog =
    Prog.of_program
      (Pipeline.with_library_classes { Ir.p_classes = classes; p_entries = [] })
  in
  ( prog,
    Callgraph.lazy_build ~callback_resolver:Callbacks.resolve
      ~callback_triggers:Callbacks.trigger_names prog )

let test_batched_different_hops () =
  let prog, cg = hops_program () in
  let slices iterations =
    (Slicer.run
       ~options:
         {
           Slicer.default_options with
           Slicer.opt_async_heuristic = true;
           opt_async_iterations = iterations;
         }
       prog cg)
      .Slicer.r_request
  in
  let in_class cls (sl : Slicer.slice) =
    Ir.Stmt_set.exists
      (fun sid -> sid.Ir.sid_meth.Ir.id_cls = cls)
      sl.Slicer.sl_stmts
  in
  match (slices 1, slices 3) with
  | [ deep1; shallow1 ], [ deep3; shallow3 ] ->
      check Alcotest.bool "one hop reaches fb's setter" true
        (in_class "com.hop.B" deep1);
      check Alcotest.bool "one hop misses fa's setter" false
        (in_class "com.hop.A" deep1);
      check Alcotest.bool "the second hop reaches fa's setter" true
        (in_class "com.hop.A" deep3);
      check Alcotest.bool "the shallow DP needs one hop" true
        (Ir.Stmt_set.equal shallow1.Slicer.sl_stmts shallow3.Slicer.sl_stmts
        && in_class "com.hop.C" shallow1);
      check Alcotest.bool "no hop crosses to the other DP's chain" false
        (in_class "com.hop.C" deep3 || in_class "com.hop.B" shallow3);
      check_batched_equals_single ~iterations:3 "hops" prog cg
  | _ -> Alcotest.fail "expected two DPs in com.hop.Send, deep first"

let () =
  Alcotest.run "slicing"
    [
      ( "registry",
        [
          tc "all DP families discovered" test_dp_registry_families;
          tc "request/response roles" test_request_response_slices_disjoint_roles;
        ] );
      ( "demarcation",
        [
          tc "discovery" test_dp_discovery;
          tc "scope filter" test_dp_scope_filter;
          tc "registry stats" test_all_dp_stats;
        ] );
      ( "slices",
        [
          tc "request slice" test_request_slice_contains_uri_code;
          tc "response slice" test_response_slice_nonempty;
          tc "noise excluded" test_noise_excluded;
          tc "fraction" test_slice_fraction_below_one;
          tc "augmentation monotone" test_augmentation_monotone;
          tc "diode fraction (fig 3)" test_diode_fraction_near_paper;
          tc "augmentation equals rescan (89 apps)"
            test_augmentation_equals_rescan;
        ] );
      ( "golden",
        [
          tc "request slices digest (89 apps)" test_golden_request_slices;
          tc "pairs digest (39 apps)" test_golden_pairs;
          tc "response slices digest (89 apps)" test_golden_response_slices;
        ] );
      ( "batched",
        [
          tc "equals one engine per DP (189 apps)" test_batched_equals_single;
          tc "DPs with different hop counts" test_batched_different_hops;
        ] );
    ]
