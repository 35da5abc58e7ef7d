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
        ] );
    ]
