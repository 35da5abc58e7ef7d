(* Runtime tests: the concrete Limple interpreter — values, control flow,
   library models, network capture — and the fuzzing policies against the
   simulated servers. *)

module Ir = Extr_ir.Types
module B = Extr_ir.Builder
module Api = Extr_semantics.Api
module Apk = Extr_apk.Apk
module Http = Extr_httpmodel.Http
module Har = Extr_httpmodel.Har
module Json = Extr_httpmodel.Json
module Uri = Extr_httpmodel.Uri
module Runtime = Extr_runtime.Runtime
module Rvalue = Extr_runtime.Rvalue
module Spec = Extr_corpus.Spec
module Corpus = Extr_corpus.Corpus
module Case_studies = Extr_corpus.Case_studies
module Server = Extr_server.Server
module Fuzz = Extr_fuzz.Fuzz

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let echo_server (req : Http.request) : Http.response =
  Http.response
    ~headers:[ ("x-endpoint", "echo") ]
    (Http.Json
       (Json.Obj
          [
            ("path", Json.Str req.Http.req_uri.Uri.path);
            ("method", Json.Str (Http.meth_to_string req.Http.req_meth));
            ("token", Json.Str "tok123");
          ]))

let run_main ?(net = echo_server) ?(input = fun () -> "42") build =
  let cls = "com.rt.Main" in
  let on_create = B.mk_meth ~cls ~name:"onCreate" ~params:[] ~ret:Ir.Void build in
  let program =
    {
      Ir.p_classes =
        B.mk_cls ~super:Api.activity cls [ on_create ] :: Api.library_classes;
      p_entries = [];
    }
  in
  let apk = Apk.make ~package:"com.rt" ~activities:[ cls ] program in
  let rt = Runtime.create ~net ~input apk in
  ignore (Runtime.launch rt);
  rt

(* ------------------------------------------------------------------ *)
(* Core interpretation                                                *)
(* ------------------------------------------------------------------ *)

let test_arithmetic_and_branches () =
  (* if 5*3+2 > 10 then GET /big else GET /small *)
  let rt =
    run_main (fun b ->
        let n =
          B.define b Ir.Int
            (Ir.Binop (Ir.Mul, B.vint 5, B.vint 3))
        in
        let n2 = B.define b Ir.Int (Ir.Binop (Ir.Add, B.vl n, B.vint 2)) in
        let cond = B.define b Ir.Bool (Ir.Binop (Ir.Gt, B.vl n2, B.vint 10)) in
        let url = B.define b Ir.Str (Ir.Val (B.vstr "")) in
        B.ite b (B.vl cond)
          (fun b -> B.assign b url (Ir.Val (B.vstr "http://h/big")))
          (fun b -> B.assign b url (Ir.Val (B.vstr "http://h/small")));
        let req = B.new_obj b Api.http_get [ B.vl url ] in
        let client = B.new_obj b Api.default_http_client [] in
        B.call b (B.virtual_call client Api.http_client "execute" [ B.vl req ]))
  in
  let trace = Runtime.captured_trace rt in
  match trace.Http.tr_entries with
  | [ te ] ->
      check Alcotest.string "branch taken" "/big"
        te.Http.te_tx.Http.tx_request.Http.req_uri.Uri.path
  | l -> Alcotest.failf "expected one request, got %d" (List.length l)

let test_loop_builds_string () =
  let rt =
    run_main (fun b ->
        let sb = B.new_obj b Api.string_builder [ B.vstr "http://h/x?" ] in
        let i = B.define b Ir.Int (Ir.Val (B.vint 0)) in
        B.while_ b
          (fun b -> B.vl (B.define b Ir.Bool (Ir.Binop (Ir.Lt, B.vl i, B.vint 3))))
          (fun b ->
            B.call b
              (B.virtual_call ~ret:(Ir.Obj Api.string_builder) sb
                 Api.string_builder "append" [ B.vstr "a" ]);
            B.assign b i (Ir.Binop (Ir.Add, B.vl i, B.vint 1)));
        let url =
          B.call_ret b Ir.Str
            (B.virtual_call ~ret:Ir.Str sb Api.string_builder "toString" [])
        in
        let req = B.new_obj b Api.http_get [ B.vl url ] in
        let client = B.new_obj b Api.default_http_client [] in
        B.call b (B.virtual_call client Api.http_client "execute" [ B.vl req ]))
  in
  match (Runtime.captured_trace rt).Http.tr_entries with
  | [ te ] ->
      check Alcotest.string "three iterations" "http://h/x?aaa"
        (Uri.to_string te.Http.te_tx.Http.tx_request.Http.req_uri)
  | _ -> Alcotest.fail "one request expected"

let test_json_response_parsing () =
  (* Parse the echoed JSON and re-send its token as a query value. *)
  let rt =
    run_main (fun b ->
        let url = B.define b Ir.Str (Ir.Val (B.vstr "http://h/first")) in
        let req = B.new_obj b Api.http_get [ B.vl url ] in
        let client = B.new_obj b Api.default_http_client [] in
        let resp =
          B.call_ret b (Ir.Obj Api.http_response)
            (B.virtual_call ~ret:(Ir.Obj Api.http_response) client
               Api.http_client "execute" [ B.vl req ])
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
        let j = B.new_obj b Api.json_object [ B.vl body ] in
        let token =
          B.call_ret b Ir.Str
            (B.virtual_call ~ret:Ir.Str j Api.json_object "getString"
               [ B.vstr "token" ])
        in
        let sb = B.new_obj b Api.string_builder [ B.vstr "http://h/second?t=" ] in
        B.call b
          (B.virtual_call ~ret:(Ir.Obj Api.string_builder) sb Api.string_builder
             "append" [ B.vl token ]);
        let url2 =
          B.call_ret b Ir.Str
            (B.virtual_call ~ret:Ir.Str sb Api.string_builder "toString" [])
        in
        let req2 = B.new_obj b Api.http_get [ B.vl url2 ] in
        B.call b (B.virtual_call client Api.http_client "execute" [ B.vl req2 ]))
  in
  match (Runtime.captured_trace rt).Http.tr_entries with
  | [ _; second ] ->
      check Alcotest.string "token flows into next request"
        "http://h/second?t=tok123"
        (Uri.to_string second.Http.te_tx.Http.tx_request.Http.req_uri)
  | l -> Alcotest.failf "expected two requests, got %d" (List.length l)

let test_edittext_input () =
  let rt =
    run_main ~input:(fun () -> "banana") (fun b ->
        let et = B.new_obj b Api.edit_text [] in
        let s =
          B.call_ret b Ir.Str (B.virtual_call ~ret:Ir.Str et Api.edit_text "getText" [])
        in
        let sb = B.new_obj b Api.string_builder [ B.vstr "http://h/q?s=" ] in
        B.call b
          (B.virtual_call ~ret:(Ir.Obj Api.string_builder) sb Api.string_builder
             "append" [ B.vl s ]);
        let url =
          B.call_ret b Ir.Str
            (B.virtual_call ~ret:Ir.Str sb Api.string_builder "toString" [])
        in
        let req = B.new_obj b Api.http_get [ B.vl url ] in
        let client = B.new_obj b Api.default_http_client [] in
        B.call b (B.virtual_call client Api.http_client "execute" [ B.vl req ]))
  in
  match (Runtime.captured_trace rt).Http.tr_entries with
  | [ te ] ->
      check Alcotest.string "input used" "http://h/q?s=banana"
        (Uri.to_string te.Http.te_tx.Http.tx_request.Http.req_uri)
  | _ -> Alcotest.fail "one request expected"

let test_click_registration_and_fire () =
  let cls = "com.rt.Main" and lsn_cls = "com.rt.L" in
  let on_click =
    B.mk_meth ~cls:lsn_cls ~name:"onClick"
      ~params:[ B.local "v" (Ir.Obj Api.view) ]
      ~ret:Ir.Void
      (fun b ->
        let url = B.define b Ir.Str (Ir.Val (B.vstr "http://h/clicked")) in
        let req = B.new_obj b Api.http_get [ B.vl url ] in
        let client = B.new_obj b Api.default_http_client [] in
        B.call b (B.virtual_call client Api.http_client "execute" [ B.vl req ]))
  in
  let on_create =
    B.mk_meth ~cls ~name:"onCreate" ~params:[] ~ret:Ir.Void (fun b ->
        let lsn = B.new_obj b lsn_cls [] in
        let view =
          B.call_ret b (Ir.Obj Api.view)
            (B.virtual_call ~ret:(Ir.Obj Api.view) (Ir.this_var cls) Api.activity
               "findViewById" [ B.vint 1 ])
        in
        B.call b (B.virtual_call view Api.view "setOnClickListener" [ B.vl lsn ]))
  in
  let program =
    {
      Ir.p_classes =
        [
          B.mk_cls ~super:Api.activity cls [ on_create ];
          B.mk_cls ~super:Api.on_click_listener lsn_cls
            [
              B.mk_meth ~cls:lsn_cls ~name:"<init>" ~params:[] ~ret:Ir.Void
                (fun _ -> ());
              on_click;
            ];
        ]
        @ Api.library_classes;
      p_entries = [];
    }
  in
  let apk = Apk.make ~package:"com.rt" ~activities:[ cls ] program in
  let rt = Runtime.create ~net:echo_server ~input:(fun () -> "x") apk in
  ignore (Runtime.launch rt);
  check Alcotest.int "registration captured" 1 (List.length rt.Runtime.registrations);
  check Alcotest.int "nothing fired yet" 0
    (List.length (Runtime.captured_trace rt).Http.tr_entries);
  List.iter (Runtime.fire rt) rt.Runtime.registrations;
  check Alcotest.int "click fired request" 1
    (List.length (Runtime.captured_trace rt).Http.tr_entries)

let test_raw_socket_runtime () =
  let rt =
    run_main (fun b ->
        let sock = B.new_obj b Api.java_socket [ B.vstr "h.example"; B.vint 80 ] in
        let os =
          B.call_ret b (Ir.Obj Api.output_stream)
            (B.virtual_call ~ret:(Ir.Obj Api.output_stream) sock Api.java_socket
               "getOutputStream" [])
        in
        B.call b
          (B.virtual_call os Api.output_stream "write"
             [ B.vstr "GET /raw/x HTTP/1.1\r\nHost: h.example\r\n\r\n" ]);
        let input =
          B.call_ret b (Ir.Obj Api.input_stream)
            (B.virtual_call ~ret:(Ir.Obj Api.input_stream) sock Api.java_socket
               "getInputStream" [])
        in
        ignore input)
  in
  match (Runtime.captured_trace rt).Http.tr_entries with
  | [ te ] ->
      check Alcotest.string "socket request reconstructed" "http://h.example/raw/x"
        (Uri.to_string te.Http.te_tx.Http.tx_request.Http.req_uri)
  | l -> Alcotest.failf "expected one request, got %d" (List.length l)

let test_fuel_exhaustion () =
  check Alcotest.bool "infinite loop trapped" true
    (try
       let _rt =
         run_main (fun b ->
             let l = B.fresh_label b in
             B.label b l;
             B.goto b l)
       in
       false
     with Runtime.Runtime_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Server + fuzz                                                      *)
(* ------------------------------------------------------------------ *)

let test_server_template_matching () =
  let app = Case_studies.radio_reddit in
  let net = Server.make app in
  let resp =
    net
      (Http.request Http.GET
         (Uri.of_string "http://www.radioreddit.com/api/hiphop/status.json"))
  in
  check Alcotest.(option string) "endpoint matched" (Some "status")
    (Http.header "x-endpoint" resp.Http.resp_headers);
  let nf =
    net (Http.request Http.GET (Uri.of_string "http://www.radioreddit.com/nope"))
  in
  check Alcotest.int "unknown path 404" 404 nf.Http.resp_status

let test_server_response_includes_unread_fields () =
  let app = Case_studies.radio_reddit in
  let net = Server.make app in
  let resp =
    net
      (Http.request Http.GET
         (Uri.of_string "http://www.radioreddit.com/api/hiphop/status.json"))
  in
  match resp.Http.resp_body with
  | Http.Json j ->
      (* "album" is never parsed by the app but is on the wire (§5.1). *)
      check Alcotest.bool "album on the wire" true
        (List.mem "album" (Json.distinct_keys j))
  | _ -> Alcotest.fail "expected json"

let test_server_access_control () =
  let app = Case_studies.kayak in
  let net = Server.make app in
  let uri = Uri.of_string "https://www.kayak.com/k/authajax" in
  let denied = net (Http.request Http.POST uri) in
  check Alcotest.int "no UA rejected" 403 denied.Http.resp_status;
  let ok =
    net
      (Http.request
         ~headers:[ ("User-Agent", "kayakandroidphone/8.1") ]
         Http.POST uri)
  in
  check Alcotest.int "UA accepted" 200 ok.Http.resp_status

let test_fuzz_policies_differ () =
  let entry = Option.get (Corpus.find (Corpus.case_studies ()) "radio reddit") in
  let apk = Lazy.force entry.Corpus.c_apk in
  let auto = Fuzz.run entry.Corpus.c_app apk ~policy:`Auto in
  let manual = Fuzz.run entry.Corpus.c_app apk ~policy:`Manual in
  let auto_eps = Fuzz.observed_endpoints auto in
  let manual_eps = Fuzz.observed_endpoints manual in
  (* login is custom UI: manual only. *)
  check Alcotest.bool "login manual only" true
    (List.mem "login" manual_eps && not (List.mem "login" auto_eps));
  check Alcotest.bool "auto subset of manual" true
    (List.for_all (fun e -> List.mem e manual_eps) auto_eps)

let test_fuzz_trigger_labels () =
  let entry = Option.get (Corpus.find (Corpus.case_studies ()) "radio reddit") in
  let apk = Lazy.force entry.Corpus.c_apk in
  let trace = Fuzz.run entry.Corpus.c_app apk ~policy:`Full in
  let labels =
    List.map
      (fun (te : Http.trace_entry) -> Http.trigger_to_string te.Http.te_trigger)
      trace.Http.tr_entries
  in
  check Alcotest.bool "custom-ui label present" true
    (List.exists (fun l -> l = "custom-ui:login") labels)

(* Every built-in app's traffic under each policy against a golden digest
   taken before the callback table drove the runtime's dispatch and the
   fuzzers' event policy: both reach every trace byte. *)
let test_fuzz_traces_golden () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (e : Corpus.entry) ->
      let apk = Lazy.force e.Corpus.c_apk in
      List.iter
        (fun policy ->
          Buffer.add_string buf (Har.to_string (Fuzz.run e.Corpus.c_app apk ~policy));
          Buffer.add_char buf '\n')
        [ `Auto; `Manual; `Full ])
    (Corpus.builtin ());
  check Alcotest.string "traces of the 39 built-in apps under 3 policies"
    "84b0c0dae6e3942efbf74999d1936133"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "runtime"
    [
      ( "interp",
        [
          tc "arithmetic and branches" test_arithmetic_and_branches;
          tc "loop builds string" test_loop_builds_string;
          tc "json response parsing" test_json_response_parsing;
          tc "edittext input" test_edittext_input;
          tc "click registration" test_click_registration_and_fire;
          tc "raw socket" test_raw_socket_runtime;
          tc "fuel exhaustion" test_fuel_exhaustion;
        ] );
      ( "server",
        [
          tc "template matching" test_server_template_matching;
          tc "unread fields on wire" test_server_response_includes_unread_fields;
          tc "access control" test_server_access_control;
        ] );
      ( "fuzz",
        [
          tc "policies differ" test_fuzz_policies_differ;
          tc "trigger labels" test_fuzz_trigger_labels;
          tc "traces digest" test_fuzz_traces_golden;
        ] );
    ]
