(* Semantic-model tests: library-model resolution (including library
   subclassing and the receiver class), demarcation points,
   implicit-callback resolution, taint transfer models, consumer sinks,
   and the §3.4 library de-obfuscation. *)

module Ir = Extr_ir.Types
module B = Extr_ir.Builder
module Prog = Extr_ir.Prog
module Api = Extr_semantics.Api
module Libmodel = Extr_semantics.Libmodel
module Demarcation = Extr_semantics.Demarcation
module Callbacks = Extr_semantics.Callbacks
module Taint_model = Extr_semantics.Taint_model
module Consumers = Extr_semantics.Consumers
module Apk = Extr_apk.Apk
module Obfuscator = Extr_apk.Obfuscator
module Deobfuscator = Extr_apk.Deobfuscator
module Corpus = Extr_corpus.Corpus

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* API matching                                                       *)
(* ------------------------------------------------------------------ *)

let resolves what expect i =
  check Alcotest.bool what true (Api.model_of i = expect)

let test_model_of_direct () =
  let sb = B.local "sb" (Ir.Obj Api.string_builder) in
  resolves "direct class" (Some Libmodel.Sb_append)
    (B.virtual_call sb Api.string_builder "append" [ B.vstr "x" ]);
  resolves "method name selects the entry" (Some Libmodel.Sb_to_string)
    (B.virtual_call sb Api.string_builder "toString" [])

let test_model_of_subclass () =
  (* DefaultHttpClient.execute inherits the HttpClient interface's entry. *)
  let c = B.local "c" (Ir.Obj Api.default_http_client) in
  resolves "library subclass" (Some Libmodel.Apache_execute)
    (B.virtual_call c Api.default_http_client "execute" [ B.vstr "r" ])

let test_model_of_receiver () =
  (* Object.toString has no entry; the receiver's static class does. *)
  let sb = B.local "sb" (Ir.Obj Api.string_builder) in
  resolves "receiver class" (Some Libmodel.Sb_to_string)
    (B.virtual_call sb Api.java_object "toString" [])

let test_model_of_unmodelled () =
  let sb = B.local "sb" (Ir.Obj Api.string_builder) in
  resolves "unmodelled library method" None
    (B.virtual_call sb Api.string_builder "reverse" []);
  let a = B.local "a" (Ir.Obj "com.example.A") in
  resolves "application call" None (B.virtual_call a "com.example.A" "toString" [])

(* Every invoke of the case studies, Table 1 and 50 generated apps: a
   call on a library class resolves, and the method reference and the
   receiver never name two different models, so which of [model_of]'s two
   lookups runs first cannot change a result. *)
let test_model_of_corpus () =
  let calls = ref 0 in
  let check_call app (i : Ir.invoke) =
    let cls = i.Ir.iref.Ir.mcls and name = i.Ir.iref.Ir.mname in
    if Api.is_library_class cls then begin
      incr calls;
      if Api.model_of i = None then Alcotest.failf "%s: %s.%s unresolved" app cls name
    end;
    match (Api.lookup ~cls ~name, i.Ir.ibase) with
    | Some by_ref, Some { Ir.vty = Ir.Obj recv; _ } -> (
        match Api.lookup ~cls:recv ~name with
        | Some by_recv when by_recv <> by_ref ->
            Alcotest.failf "%s: %s.%s on a %s names two models" app cls name recv
        | Some _ | None -> ())
    | _, _ -> ()
  in
  List.iter
    (fun (e : Corpus.entry) ->
      let apk = Lazy.force e.Corpus.c_apk in
      List.iter
        (fun (c : Ir.cls) ->
          List.iter
            (fun (m : Ir.meth) ->
              Array.iter
                (fun stmt ->
                  Option.iter (check_call e.Corpus.c_app.Extr_corpus.Spec.a_name)
                    (Ir.stmt_invoke stmt))
                m.Ir.m_body)
            c.Ir.c_methods)
        apk.Apk.program.Ir.p_classes)
    (Corpus.case_studies () @ Corpus.table1 () @ Corpus.generated ~seed:1 ~count:50);
  check Alcotest.bool "library calls seen" true (!calls > 1000)

let test_library_subclass () =
  check Alcotest.bool "HttpGet extends request base" true
    (Api.library_subclass ~sub:Api.http_get ~super:Api.http_request_base);
  check Alcotest.bool "not reflexive across trees" false
    (Api.library_subclass ~sub:Api.http_get ~super:Api.json_object)

(* ------------------------------------------------------------------ *)
(* Demarcation points                                                 *)
(* ------------------------------------------------------------------ *)

let test_demarcation_find () =
  let c = B.local "c" (Ir.Obj Api.default_http_client) in
  let i = B.virtual_call c Api.http_client "execute" [ B.vstr "r" ] in
  check Alcotest.bool "execute is a DP" true (Demarcation.is_demarcation i);
  let sb = B.local "sb" (Ir.Obj Api.string_builder) in
  let j = B.virtual_call sb Api.string_builder "append" [ B.vstr "x" ] in
  check Alcotest.bool "append is not" false (Demarcation.is_demarcation j)

let test_demarcation_bindings () =
  let c = B.local "c" (Ir.Obj Api.default_http_client) in
  let i = B.virtual_call c Api.http_client "execute" [ B.vstr "r" ] in
  match Demarcation.find i with
  | Some dp ->
      check Alcotest.bool "request is arg 0" true
        (dp.Demarcation.dp_request = Demarcation.Arg 0);
      check Alcotest.bool "response is the return" true
        (dp.Demarcation.dp_response = Demarcation.Ret)
  | None -> Alcotest.fail "execute not found"

let test_demarcation_socket_extension () =
  let s = B.local "s" (Ir.Obj Api.java_socket) in
  let i = B.virtual_call s Api.java_socket "getInputStream" [] in
  check Alcotest.bool "socket getInputStream is a DP" true
    (Demarcation.is_demarcation i)

(* ------------------------------------------------------------------ *)
(* Callbacks                                                          *)
(* ------------------------------------------------------------------ *)

let test_callbacks_asynctask () =
  let task_cls = "T" in
  let dib =
    B.mk_meth ~cls:task_cls ~name:"doInBackground"
      ~params:[ B.local "u" Ir.Str ]
      ~ret:Ir.Str
      (fun b -> B.return_value b (B.vstr ""))
  in
  let prog =
    Prog.of_program
      {
        Ir.p_classes =
          B.mk_cls ~super:Api.async_task task_cls [ dib ] :: Api.library_classes;
        p_entries = [];
      }
  in
  let t = B.local "t" (Ir.Obj task_cls) in
  let i = B.virtual_call t Api.async_task "execute" [ B.vstr "u" ] in
  check Alcotest.bool "doInBackground resolved" true
    (List.mem
       { Ir.id_cls = task_cls; id_name = "doInBackground" }
       (Callbacks.resolve prog i))

(* Each listener registration, the four framework events and both Volley
   calls, resolves to the callback the table names on the listener
   class. *)
let test_callbacks_click () =
  let lsn_cls = "L" in
  let case what ~super ~callback ?event model invoke =
    check Alcotest.(list string) (what ^ ": the table's callback") [ callback ]
      (Callbacks.callbacks model);
    (match event with
    | Some e ->
        check Alcotest.bool (what ^ ": the model registers the event") true
          (Callbacks.event_of model = Some e);
        check Alcotest.string (what ^ ": the event's callback") callback
          (Callbacks.callback e)
    | None ->
        check Alcotest.bool (what ^ ": no event") true (Callbacks.event_of model = None));
    let cb =
      B.mk_meth ~cls:lsn_cls ~name:callback ~params:[] ~ret:Ir.Void (fun _ -> ())
    in
    let prog =
      Prog.of_program
        {
          Ir.p_classes = B.mk_cls ~super lsn_cls [ cb ] :: Api.library_classes;
          p_entries = [];
        }
    in
    let l = B.local "l" (Ir.Obj lsn_cls) in
    let i = invoke (B.vl l) in
    check Alcotest.bool (what ^ ": model") true (Api.model_of i = Some model);
    check Alcotest.bool (what ^ ": " ^ callback ^ " resolved") true
      (List.mem { Ir.id_cls = lsn_cls; id_name = callback } (Callbacks.resolve prog i))
  in
  let on cls name = B.local name (Ir.Obj cls) in
  case "click" ~super:Api.on_click_listener ~callback:"onClick" ~event:Callbacks.Click
    Libmodel.On_click (fun l ->
      B.virtual_call (on Api.view "v") Api.view "setOnClickListener" [ l ]);
  case "timer" ~super:Api.timer_task ~callback:"run" ~event:Callbacks.Timer
    Libmodel.Timer_schedule (fun l ->
      B.virtual_call (on Api.timer "t") Api.timer "schedule" [ l; B.vint 60000 ]);
  case "push" ~super:Api.messaging_service ~callback:"onMessage" ~event:Callbacks.Push
    Libmodel.Push_subscribe (fun l ->
      B.static_call Api.firebase_messaging "subscribe" [ l ]);
  case "location" ~super:Api.location_listener ~callback:"onLocationChanged"
    ~event:Callbacks.Location Libmodel.Location_updates (fun l ->
      B.virtual_call (on Api.location_manager "lm") Api.location_manager
        "requestLocationUpdates" [ l ]);
  case "volley request-init" ~super:Api.volley_listener ~callback:"onResponse"
    Libmodel.Volley_request_init (fun l ->
      B.special_call (on Api.string_request "r") Api.string_request "<init>"
        [ B.vstr "GET"; B.vstr "https://h/p"; l ]);
  (* An app subclass of StringRequest may define onResponse itself. *)
  case "volley add" ~super:Api.string_request ~callback:"onResponse" Libmodel.Volley_add
    (fun l -> B.virtual_call (on Api.request_queue "q") Api.request_queue "add" [ l ])

(* ------------------------------------------------------------------ *)
(* Taint transfer model                                               *)
(* ------------------------------------------------------------------ *)

let test_taint_default_flow () =
  let sb = B.local "sb" (Ir.Obj Api.string_builder) in
  let i = B.virtual_call sb Api.string_builder "append" [ B.vstr "x" ] in
  let e = Taint_model.transfer i ~base_tainted:false ~args_tainted:[ true ] in
  check Alcotest.bool "ret tainted" true e.Taint_model.taint_ret;
  check Alcotest.bool "receiver accumulates" true e.Taint_model.taint_base

let test_taint_sanitizer () =
  let i = B.static_call Api.android_log "d" [ B.vstr "t"; B.vstr "m" ] in
  let e = Taint_model.transfer i ~base_tainted:false ~args_tainted:[ false; true ] in
  check Alcotest.bool "log does not flow" false e.Taint_model.taint_ret

let test_taint_db_store () =
  let db = B.local "db" (Ir.Obj Api.sqlite_database) in
  let cv = B.local "cv" (Ir.Obj Api.content_values) in
  let i = B.virtual_call db Api.sqlite_database "insert" [ B.vstr "talks"; B.vl cv ] in
  let e = Taint_model.transfer i ~base_tainted:false ~args_tainted:[ false; true ] in
  check Alcotest.(option string) "tainted table recorded" (Some "talks")
    e.Taint_model.db_write;
  let q = B.virtual_call db Api.sqlite_database "query" [ B.vstr "talks" ] in
  let e2 = Taint_model.transfer q ~base_tainted:false ~args_tainted:[ false ] in
  check Alcotest.(option string) "query reads the store" (Some "talks")
    e2.Taint_model.db_read

let test_source_tag () =
  let loc = B.local "loc" (Ir.Obj Api.location) in
  let i = B.virtual_call ~ret:Ir.Str loc Api.location "getLat" [] in
  check Alcotest.(option string) "gps origin" (Some "gps") (Taint_model.source_tag i)

(* ------------------------------------------------------------------ *)
(* Consumers                                                          *)
(* ------------------------------------------------------------------ *)

let test_consumers () =
  let mp = B.local "mp" (Ir.Obj Api.media_player) in
  let i = B.virtual_call mp Api.media_player "setDataSource" [ B.vstr "u" ] in
  (match Consumers.find i with
  | Some (Consumers.Media_player, [ 0 ]) -> ()
  | _ -> Alcotest.fail "media player sink");
  let db = B.local "db" (Ir.Obj Api.sqlite_database) in
  let cv = B.local "cv" (Ir.Obj Api.content_values) in
  let j = B.virtual_call db Api.sqlite_database "insert" [ B.vstr "t"; B.vl cv ] in
  match Consumers.find j with
  | Some (Consumers.Database "t", [ 1 ]) -> ()
  | _ -> Alcotest.fail "database sink"

(* ------------------------------------------------------------------ *)
(* Library de-obfuscation: unit-level discriminators                   *)
(* ------------------------------------------------------------------ *)

(* A minimal app exercising the given builder body, wrapped into an APK
   with the full library surface so obfuscation/recovery can run. *)
let mini_apk build =
  let run =
    B.mk_meth ~cls:"com.mini.App" ~name:"run" ~params:[] ~ret:Ir.Void build
  in
  let cls = B.mk_cls "com.mini.App" [ run ] in
  let program =
    { Ir.p_classes = cls :: Api.library_classes; p_entries = [] }
  in
  Apk.make ~package:"com.mini" program

(* Recover the library map of [apk] and return [find]: truth class name →
   recovered class name (or "-" when unrecovered). *)
let recovered_of apk =
  let obf, truth = Obfuscator.obfuscate_libraries apk in
  let _, mapping = Deobfuscator.deobfuscate obf in
  fun cls ->
    let obf_name = Obfuscator.rename_class truth cls in
    Option.value
      (List.assoc_opt obf_name mapping.Deobfuscator.dm_classes)
      ~default:"-"

let test_deobf_get_post () =
  (* Only the entity-enclosing request receives setEntity; that single
     usage must separate the constructor-identical GET and POST. *)
  let apk =
    mini_apk (fun b ->
        let client = B.new_obj b Api.default_http_client [] in
        let get = B.new_obj b Api.http_get [ B.vstr "http://x/a" ] in
        let post = B.new_obj b Api.http_post [ B.vstr "http://x/b" ] in
        let body = B.new_obj b Api.string_entity [ B.vstr "k=v" ] in
        B.call b
          (B.virtual_call post Api.http_request_base "setEntity" [ B.vl body ]);
        B.call b
          (B.virtual_call ~ret:(Ir.Obj Api.http_response) client
             Api.http_client "execute" [ B.vl get ]);
        B.call b
          (B.virtual_call ~ret:(Ir.Obj Api.http_response) client
             Api.http_client "execute" [ B.vl post ]);
        B.return_void b)
  in
  let find = recovered_of apk in
  check Alcotest.string "post" Api.http_post (find Api.http_post);
  check Alcotest.string "get" Api.http_get (find Api.http_get);
  check Alcotest.string "entity" Api.string_entity (find Api.string_entity)

let test_deobf_builder_self_return () =
  (* StringBuilder's self-returning append and JSONObject's string-keyed
     reads have the same name-free shapes; both must still round-trip. *)
  let apk =
    mini_apk (fun b ->
        let sb = B.new_obj b Api.string_builder [ B.vstr "http://x/?q=" ] in
        let sb2 =
          B.call_ret b (Ir.Obj Api.string_builder)
            (B.virtual_call
               ~ret:(Ir.Obj Api.string_builder)
               sb Api.string_builder "append" [ B.vstr "1" ])
        in
        let s =
          B.call_ret b Ir.Str
            (B.virtual_call ~ret:Ir.Str sb2 Api.string_builder "toString" [])
        in
        let j = B.new_obj b Api.json_object [ B.vl s ] in
        let v =
          B.call_ret b Ir.Str
            (B.virtual_call ~ret:Ir.Str j Api.json_object "getString"
               [ B.vstr "user" ])
        in
        ignore v;
        B.return_void b)
  in
  let find = recovered_of apk in
  check Alcotest.string "string builder" Api.string_builder
    (find Api.string_builder);
  check Alcotest.string "json object" Api.json_object (find Api.json_object)

let test_deobf_ret_chain () =
  (* The okhttp chain has almost no distinctive per-class shapes; identity
     must flow through declared return classes (client → call → response
     → body). *)
  let apk =
    mini_apk (fun b ->
        let client = B.new_obj b Api.okhttp_client [] in
        let bld = B.new_obj b Api.okhttp_builder [] in
        let bld =
          B.call_ret b (Ir.Obj Api.okhttp_builder)
            (B.virtual_call
               ~ret:(Ir.Obj Api.okhttp_builder)
               bld Api.okhttp_builder "url" [ B.vstr "http://x/c" ])
        in
        let req =
          B.call_ret b (Ir.Obj Api.okhttp_request)
            (B.virtual_call
               ~ret:(Ir.Obj Api.okhttp_request)
               bld Api.okhttp_builder "build" [])
        in
        let call =
          B.call_ret b (Ir.Obj Api.okhttp_call)
            (B.virtual_call ~ret:(Ir.Obj Api.okhttp_call) client
               Api.okhttp_client "newCall" [ B.vl req ])
        in
        let resp =
          B.call_ret b (Ir.Obj Api.okhttp_response)
            (B.virtual_call
               ~ret:(Ir.Obj Api.okhttp_response)
               call Api.okhttp_call "execute" [])
        in
        let body =
          B.call_ret b (Ir.Obj Api.okhttp_response_body)
            (B.virtual_call
               ~ret:(Ir.Obj Api.okhttp_response_body)
               resp Api.okhttp_response "body" [])
        in
        let s =
          B.call_ret b Ir.Str
            (B.virtual_call ~ret:Ir.Str body Api.okhttp_response_body "string"
               [])
        in
        ignore s;
        B.return_void b)
  in
  let find = recovered_of apk in
  List.iter
    (fun cls -> check Alcotest.string cls cls (find cls))
    [
      Api.okhttp_client; Api.okhttp_builder; Api.okhttp_request;
      Api.okhttp_call; Api.okhttp_response; Api.okhttp_response_body;
    ]

let test_usage_profiles_attribution () =
  (* Calls resolve to the receiver's static class, not the method
     reference's declaring class: HttpPost.setEntity declared on the
     request base must profile under the HttpPost receiver. *)
  let apk =
    mini_apk (fun b ->
        let post = B.new_obj b Api.http_post [ B.vstr "http://x/b" ] in
        let body = B.new_obj b Api.string_entity [ B.vstr "k=v" ] in
        B.call b
          (B.virtual_call post Api.http_request_base "setEntity" [ B.vl body ]);
        B.return_void b)
  in
  let profiles = Deobfuscator.usage_profiles apk.Apk.program in
  let post_usages =
    Option.value (Hashtbl.find_opt profiles Api.http_post) ~default:[]
  in
  check Alcotest.bool "setEntity attributed to the HttpPost receiver" true
    (List.exists
       (fun (u : Deobfuscator.usage) ->
         u.Deobfuscator.u_name = "setEntity"
         && u.u_args = [ Deobfuscator.Sobj ]
         && u.u_arg_obs = [ Deobfuscator.Obs_lib Api.string_entity ])
       post_usages);
  check Alcotest.bool "nothing attributed to the declaring base class" true
    (not (Hashtbl.mem profiles Api.http_request_base))

let test_deobf_restores_demarcation () =
  (* Under library obfuscation no demarcation point matches; after
     recovery the DP registry fires again. *)
  let apk =
    mini_apk (fun b ->
        let client = B.new_obj b Api.default_http_client [] in
        let get = B.new_obj b Api.http_get [ B.vstr "http://x/a" ] in
        B.call b
          (B.virtual_call ~ret:(Ir.Obj Api.http_response) client
             Api.http_client "execute" [ B.vl get ]);
        B.return_void b)
  in
  let count_dps (apk : Apk.t) =
    List.fold_left
      (fun acc (c : Ir.cls) ->
        if c.Ir.c_library then acc
        else
          List.fold_left
            (fun acc (m : Ir.meth) ->
              Array.fold_left
                (fun acc stmt ->
                  match Ir.stmt_invoke stmt with
                  | Some i when Demarcation.is_demarcation i -> acc + 1
                  | Some _ | None -> acc)
                acc m.Ir.m_body)
            acc c.Ir.c_methods)
      0 apk.Apk.program.Ir.p_classes
  in
  let obf, _ = Obfuscator.obfuscate_libraries apk in
  let restored, _ = Deobfuscator.deobfuscate obf in
  check Alcotest.int "no DP while obfuscated" 0 (count_dps obf);
  check Alcotest.int "DP restored" 1 (count_dps restored)

(* ------------------------------------------------------------------ *)
(* Library de-obfuscation on the whole corpus sample                   *)
(* ------------------------------------------------------------------ *)

let test_deobfuscation_roundtrip_apps () =
  List.iter
    (fun name ->
      let entries = Extr_corpus.Corpus.case_studies () in
      let e = Option.get (Extr_corpus.Corpus.find entries name) in
      let apk = Lazy.force e.Extr_corpus.Corpus.c_apk in
      let obf, truth = Obfuscator.obfuscate_libraries apk in
      let _, mapping = Deobfuscator.deobfuscate obf in
      (* Every library class the app actually invokes must round-trip. *)
      let used = Hashtbl.create 16 in
      List.iter
        (fun (c : Ir.cls) ->
          if not c.Ir.c_library then
            List.iter
              (fun (m : Ir.meth) ->
                Array.iter
                  (fun stmt ->
                    match Ir.stmt_invoke stmt with
                    | Some i when Api.is_library_class i.Ir.iref.Ir.mcls ->
                        Hashtbl.replace used i.Ir.iref.Ir.mcls ()
                    | Some _ | None -> ())
                  m.Ir.m_body)
              c.Ir.c_methods)
        apk.Apk.program.Ir.p_classes;
      Hashtbl.iter
        (fun cls () ->
          let obf_name = Obfuscator.rename_class truth cls in
          match List.assoc_opt obf_name mapping.Deobfuscator.dm_classes with
          | Some known ->
              check Alcotest.string
                (Printf.sprintf "%s: %s" name cls)
                cls known
          | None ->
              Alcotest.failf "%s: class %s (%s) unrecovered" name cls obf_name)
        used)
    [
      "radio reddit";
      "TED (case study)";
      "SharedDP";
      "Diode";
      "Kayak (case study)";
    ]

let () =
  Alcotest.run "semantics"
    [
      ( "api",
        [
          tc "model_of direct" test_model_of_direct;
          tc "model_of subclass" test_model_of_subclass;
          tc "model_of receiver class" test_model_of_receiver;
          tc "model_of unmodelled" test_model_of_unmodelled;
          tc "model_of corpus calls" test_model_of_corpus;
          tc "library subclass" test_library_subclass;
        ] );
      ( "demarcation",
        [
          tc "find" test_demarcation_find;
          tc "bindings" test_demarcation_bindings;
          tc "socket extension" test_demarcation_socket_extension;
        ] );
      ( "callbacks",
        [
          tc "asynctask" test_callbacks_asynctask;
          tc "click" test_callbacks_click;
        ] );
      ( "taint-model",
        [
          tc "default flow" test_taint_default_flow;
          tc "sanitizer" test_taint_sanitizer;
          tc "db store" test_taint_db_store;
          tc "source tag" test_source_tag;
        ] );
      ("consumers", [ tc "sinks" test_consumers ]);
      ( "deobfuscation",
        [
          tc "get/post entity discriminator" test_deobf_get_post;
          tc "builder self-return" test_deobf_builder_self_return;
          tc "okhttp return-class chain" test_deobf_ret_chain;
          tc "profile receiver attribution" test_usage_profiles_attribution;
          tc "recovery restores demarcation" test_deobf_restores_demarcation;
          tc "round trip on corpus apps" test_deobfuscation_roundtrip_apps;
        ] );
    ]
