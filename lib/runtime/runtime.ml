(* A concrete Limple interpreter: executes corpus apps against a simulated
   origin server and captures every HTTP transaction in a traffic trace —
   the substrate under the UI-fuzzing baselines of §5.1.  Library classes
   are modelled concretely (the runtime counterpart of the semantic models
   used by the static analysis). *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Api = Extr_semantics.Api
module Libmodel = Extr_semantics.Libmodel
module Callbacks = Extr_semantics.Callbacks
module Apk = Extr_apk.Apk
module Http = Extr_httpmodel.Http
module Uri = Extr_httpmodel.Uri
module Json = Extr_httpmodel.Json
module Xml = Extr_httpmodel.Xml
open Rvalue

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(** A registered framework callback: the event that fires it and the
    receiving listener object. *)
type registration = { rg_event : Callbacks.event; rg_listener : robj }

type t = {
  prog : Prog.t;
  apk : Apk.t;
  net : Http.request -> Http.response;  (** the origin server *)
  input : unit -> string;  (** fuzz input provider (EditText contents) *)
  mutable trace : Http.trace_entry list;  (** captured transactions, reversed *)
  mutable trigger : Http.trigger;  (** label for the current event *)
  mutable registrations : registration list;
  statics : (string * string, Rvalue.t) Hashtbl.t;
  db : (string, (string, string) Hashtbl.t) Hashtbl.t;  (** table → column → value *)
  mutable fuel : int;
}

let create ?(fuel = 2_000_000) ~net ~input (apk : Apk.t) =
  {
    prog = Prog.of_program apk.Apk.program;
    apk;
    net;
    input;
    trace = [];
    trigger = Http.App_internal "startup";
    registrations = [];
    statics = Hashtbl.create 8;
    db = Hashtbl.create 4;
    fuel;
  }

let captured_trace t =
  { Http.tr_app = t.apk.Apk.manifest.Apk.mf_label; tr_entries = List.rev t.trace }

(* ------------------------------------------------------------------ *)
(* Network                                                            *)
(* ------------------------------------------------------------------ *)

let perform_request t (req : Http.request) : Http.response =
  let resp = t.net req in
  t.trace <-
    { Http.te_tx = { Http.tx_request = req; tx_response = resp }; te_trigger = t.trigger }
    :: t.trace;
  resp

(* ------------------------------------------------------------------ *)
(* Frames and method invocation                                       *)
(* ------------------------------------------------------------------ *)

type frame = { locals : (string, Rvalue.t) Hashtbl.t }

let local_get frame name =
  match Hashtbl.find_opt frame.locals name with
  | Some v -> v
  | None -> Rnull

let local_set frame name v = Hashtbl.replace frame.locals name v

let eval_const = function
  | Ir.Cint n -> Rint n
  | Ir.Cbool b -> Rbool b
  | Ir.Cstr s -> Rstr s
  | Ir.Cnull -> Rnull

let eval_value frame = function
  | Ir.Const c -> eval_const c
  | Ir.Local v -> local_get frame v.Ir.vname

let eval_binop op a b =
  let int_op f =
    match (a, b) with
    | Rint x, Rint y -> Rint (f x y)
    | _, _ -> fail "numeric operands expected"
  in
  let cmp f = match (a, b) with
    | Rint x, Rint y -> Rbool (f (compare x y) 0)
    | Rstr x, Rstr y -> Rbool (f (compare x y) 0)
    | Rbool x, Rbool y -> Rbool (f (compare x y) 0)
    | Rnull, Rnull -> Rbool (f 0 0)
    | _, _ -> Rbool (f (compare (to_string a) (to_string b)) 0)
  in
  match op with
  | Ir.Add -> int_op ( + )
  | Ir.Sub -> int_op ( - )
  | Ir.Mul -> int_op ( * )
  | Ir.Div -> int_op ( / )
  | Ir.Eq -> cmp ( = )
  | Ir.Ne -> cmp ( <> )
  | Ir.Lt -> cmp ( < )
  | Ir.Le -> cmp ( <= )
  | Ir.Gt -> cmp ( > )
  | Ir.Ge -> cmp ( >= )
  | Ir.And -> Rbool (truthy a && truthy b)
  | Ir.Or -> Rbool (truthy a || truthy b)

(* ------------------------------------------------------------------ *)
(* App method execution                                               *)
(* ------------------------------------------------------------------ *)

let rec exec_method t (meth : Ir.meth) ~(this : Rvalue.t option)
    ~(args : Rvalue.t list) : Rvalue.t =
  let frame = { locals = Hashtbl.create 16 } in
  List.iteri
    (fun i (p : Ir.var) ->
      local_set frame p.Ir.vname (Option.value (List.nth_opt args i) ~default:Rnull))
    meth.Ir.m_params;
  (match this with Some v -> local_set frame "this" v | None -> ());
  let body = meth.Ir.m_body in
  let labels = Hashtbl.create 8 in
  Array.iteri
    (fun i s -> match s with Ir.Lab l -> Hashtbl.replace labels l i | _ -> ())
    body;
  let pc = ref 0 in
  let result = ref Rnull in
  let running = ref true in
  while !running && !pc < Array.length body do
    t.fuel <- t.fuel - 1;
    if t.fuel <= 0 then fail "out of fuel in %s.%s" meth.Ir.m_cls meth.Ir.m_name;
    (match body.(!pc) with
    | Ir.Assign (lhs, rhs) -> (
        let v = eval_expr t frame rhs in
        match lhs with
        | Ir.Lvar x ->
            local_set frame x.Ir.vname v;
            incr pc
        | Ir.Lfield (x, f) ->
            (match local_get frame x.Ir.vname with
            | Robj o -> set_slot o f.Ir.fname v
            | other -> fail "field store on %s" (to_string other));
            incr pc
        | Ir.Lsfield f ->
            Hashtbl.replace t.statics (f.Ir.fcls, f.Ir.fname) v;
            incr pc
        | Ir.Lelem (x, i) ->
            (match (local_get frame x.Ir.vname, eval_value frame i) with
            | Robj o, Rint idx -> set_slot o (string_of_int idx) v
            | _, _ -> fail "array store");
            incr pc)
    | Ir.InvokeStmt i ->
        ignore (eval_invoke t frame i);
        incr pc
    | Ir.If (v, l) ->
        if truthy (eval_value frame v) then pc := Hashtbl.find labels l
        else incr pc
    | Ir.Goto l -> pc := Hashtbl.find labels l
    | Ir.Lab _ | Ir.Nop -> incr pc
    | Ir.Return v ->
        (match v with Some value -> result := eval_value frame value | None -> ());
        running := false);
    ()
  done;
  !result

and eval_expr t frame (e : Ir.expr) : Rvalue.t =
  match e with
  | Ir.Val v -> eval_value frame v
  | Ir.Binop (op, a, b) -> eval_binop op (eval_value frame a) (eval_value frame b)
  | Ir.New cls -> Robj (new_obj cls)
  | Ir.NewArr _ -> Robj (new_obj "array")
  | Ir.IField (x, f) -> (
      match local_get frame x.Ir.vname with
      | Robj o -> (
          match slot o f.Ir.fname with
          | Some v -> v
          | None -> (
              match f.Ir.fty with
              | Ir.Int -> Rint 0
              | Ir.Bool -> Rbool false
              | Ir.Str -> Rstr ""
              | Ir.Void | Ir.Obj _ | Ir.Arr _ -> Rnull))
      | other -> fail "field read on %s" (to_string other))
  | Ir.SField f -> (
      match Hashtbl.find_opt t.statics (f.Ir.fcls, f.Ir.fname) with
      | Some v -> v
      | None -> Rnull)
  | Ir.AElem (x, i) -> (
      match (local_get frame x.Ir.vname, eval_value frame i) with
      | Robj o, Rint idx -> Option.value (slot o (string_of_int idx)) ~default:Rnull
      | _, _ -> Rnull)
  | Ir.ALen _ -> Rint 0
  | Ir.Cast (_, v) -> eval_value frame v
  | Ir.Invoke i -> eval_invoke t frame i

and eval_invoke t frame (i : Ir.invoke) : Rvalue.t =
  let base = Option.map (fun b -> local_get frame b.Ir.vname) i.Ir.ibase in
  let args = List.map (eval_value frame) i.Ir.iargs in
  (* Application target? *)
  let app_target =
    match i.Ir.ikind with
    | Ir.Static ->
        Prog.find_method t.prog (Ir.method_id_of_ref i.Ir.iref)
        |> Option.map (fun m -> (m, base))
    | Ir.Special | Ir.Virtual -> (
        match base with
        | Some (Robj o) when not (Api.is_library_class o.ro_cls) -> (
            match Prog.resolve_virtual t.prog ~cls:o.ro_cls ~mname:i.Ir.iref.Ir.mname with
            | Some m -> Some (m, base)
            | None -> None)
        | _ -> None)
  in
  match app_target with
  | Some (m, this) -> exec_method t m ~this ~args
  | None -> lib_call t i ~base ~args

(* ------------------------------------------------------------------ *)
(* Concrete library models                                            *)
(* ------------------------------------------------------------------ *)

and lib_call t (i : Ir.invoke) ~(base : Rvalue.t option) ~(args : Rvalue.t list)
    : Rvalue.t =
  let name = i.Ir.iref.Ir.mname in
  let m =
    match Api.model_of i with
    | Some m -> m
    | None -> fail "unmodelled library call %s.%s" i.Ir.iref.Ir.mcls name
  in
  let base_obj = match base with Some (Robj o) -> Some o | _ -> None in
  let req_obj () =
    match base_obj with Some o -> o | None -> fail "missing receiver for %s" name
  in
  let arg n = Option.value (List.nth_opt args n) ~default:Rnull in
  let str_arg n = to_string (arg n) in
  let callback cls name = Prog.find_method t.prog { Ir.id_cls = cls; id_name = name } in
  match (m : Api.model) with
  (* ---------------- AsyncTask (implicit control flow) ------------- *)
  | Async_execute ->
      (match base with
      | Some (Robj o) ->
          (* doInBackground(args), then onPostExecute(its result). *)
          let run prev name =
            let args = if Callbacks.previous name = None then args else [ prev ] in
            match callback o.ro_cls name with
            | Some cb -> exec_method t cb ~this:(Some (Robj o)) ~args
            | None -> Rnull
          in
          ignore (List.fold_left run Rnull (Callbacks.callbacks m))
      | _ -> ());
      Rnull
  (* ---------------- reflection ---------------- *)
  | Class_for_name ->
      let o = Rvalue.new_obj Api.java_class in
      set_slot o "name" (Rstr (str_arg 0));
      Robj o
  | New_instance -> (
      match Option.bind base_obj (fun o -> slot o "name") with
      | Some (Rstr cls) ->
          let o = Rvalue.new_obj cls in
          (match Prog.find_method t.prog { Ir.id_cls = cls; id_name = "<init>" } with
          | Some init -> ignore (exec_method t init ~this:(Some (Robj o)) ~args:[])
          | None -> ());
          Robj o
      | Some _ | None -> fail "newInstance on unresolved class")
  | Get_method ->
      let mo = Rvalue.new_obj Api.reflect_method in
      (match Option.bind base_obj (fun o -> slot o "name") with
      | Some v -> set_slot mo "cls" v
      | None -> ());
      set_slot mo "mname" (Rstr (str_arg 0));
      Robj mo
  | Method_invoke -> (
      match
        ( Option.bind base_obj (fun o -> slot o "cls"),
          Option.bind base_obj (fun o -> slot o "mname") )
      with
      | Some (Rstr cls), Some (Rstr mname) -> (
          match Prog.find_method t.prog { Ir.id_cls = cls; id_name = mname } with
          | Some target ->
              let this = List.nth_opt args 0 in
              let rest = match args with [] -> [] | _ :: r -> r in
              exec_method t target ~this ~args:rest
          | None -> fail "reflective target %s.%s not found" cls mname)
      | _, _ -> fail "invoke on unresolved method")
  (* ---------------- StringBuilder / String ---------------- *)
  | Sb_init ->
      set_slot (req_obj ()) "s"
        (Rstr (match args with [] -> "" | v :: _ -> to_string v));
      Rnull
  | Sb_append ->
      let o = req_obj () in
      let cur = match slot o "s" with Some (Rstr s) -> s | _ -> "" in
      set_slot o "s" (Rstr (cur ^ str_arg 0));
      Robj o
  | Sb_to_string -> Rstr (match slot (req_obj ()) "s" with Some (Rstr s) -> s | _ -> "")
  | Str_value_of | Int_to_string -> Rstr (str_arg 0)
  | Str_concat -> Rstr (to_string (Option.value base ~default:Rnull) ^ str_arg 0)
  | Str_trim -> Rstr (String.trim (to_string (Option.value base ~default:Rnull)))
  | Str_equals -> Rbool (to_string (Option.value base ~default:Rnull) = str_arg 0)
  | Str_length -> Rint (String.length (to_string (Option.value base ~default:Rnull)))
  | Int_parse ->
      Rint (match int_of_string_opt (String.trim (str_arg 0)) with Some n -> n | None -> 0)
  | Url_encode -> Rstr (Uri.percent_encode (str_arg 0))
  (* ---------------- android UI / resources ---------------- *)
  | Res_string -> (
      match arg 0 with
      | Rint id -> Rstr (Option.value (Apk.resource_string t.apk id) ~default:"")
      | _ -> Rstr "")
  | Get_resources -> Robj (new_obj Api.resources)
  | Find_view -> Robj (new_obj Api.view)
  | Edit_text_get -> Rstr (t.input ())
  | On_click | Timer_schedule | Push_subscribe | Location_updates ->
      (match (arg 0, Callbacks.event_of m) with
      | Robj l, Some e ->
          t.registrations <- t.registrations @ [ { rg_event = e; rg_listener = l } ]
      | _ -> ());
      Rnull
  | Location_lat -> Rstr "37.566"
  | Location_lon -> Rstr "126.978"
  | Set_text | Log | Framework_init | Noop -> Rnull
  (* ---------------- containers ---------------- *)
  | List_init ->
      set_slot (req_obj ()) "n" (Rint 0);
      Rnull
  | List_add ->
      let o = req_obj () in
      let n = match slot o "n" with Some (Rint n) -> n | _ -> 0 in
      set_slot o (string_of_int n) (arg 0);
      set_slot o "n" (Rint (n + 1));
      Rbool true
  | List_get -> (
      match arg 0 with
      | Rint idx -> Option.value (slot (req_obj ()) (string_of_int idx)) ~default:Rnull
      | _ -> Rnull)
  | List_size -> (match slot (req_obj ()) "n" with Some (Rint n) -> Rint n | _ -> Rint 0)
  | Map_init -> Rnull
  | Map_put ->
      set_slot (req_obj ()) ("k:" ^ str_arg 0) (arg 1);
      Rnull
  | Map_get -> Option.value (slot (req_obj ()) ("k:" ^ str_arg 0)) ~default:Rnull
  (* ---------------- org.apache.http ---------------- *)
  | Request_init ->
      set_slot (req_obj ()) "uri" (arg 0);
      Rnull
  | Add_header ->
      set_slot (req_obj ()) ("h:" ^ str_arg 0) (arg 1);
      Rnull
  | Set_entity ->
      set_slot (req_obj ()) "entity" (arg 0);
      Rnull
  | String_entity_init ->
      set_slot (req_obj ()) "content" (Rstr (str_arg 0));
      Rnull
  | Form_entity_init ->
      set_slot (req_obj ()) "params" (arg 0);
      Rnull
  | Pair_init ->
      let o = req_obj () in
      set_slot o "k" (arg 0);
      set_slot o "v" (arg 1);
      Rnull
  | Apache_execute -> (
      match arg 0 with
      | Robj req -> Robj (apache_execute t req)
      | _ -> fail "execute without request")
  | Get_entity | Get_content -> Robj (req_obj ())
  | Read_stream -> (
      match arg 0 with
      | Robj o -> Option.value (slot o "body") ~default:(Rstr "")
      | _ -> Rstr "")
  (* ---------------- HttpURLConnection ---------------- *)
  | Url_init ->
      set_slot (req_obj ()) "uri" (arg 0);
      Rnull
  | Open_connection ->
      let conn = new_obj Api.http_url_connection in
      (match base_obj with
      | Some u -> (
          match slot u "uri" with Some v -> set_slot conn "uri" v | None -> ())
      | None -> ());
      set_slot conn "meth" (Rstr "GET");
      Robj conn
  | Set_method ->
      set_slot (req_obj ()) "meth" (arg 0);
      Rnull
  | Conn_output ->
      let os = new_obj Api.output_stream in
      set_slot os "conn" (Robj (req_obj ()));
      Robj os
  | Stream_write ->
      (match (slot (req_obj ()) "conn", slot (req_obj ()) "sock") with
      | Some (Robj conn), _ -> set_slot conn "wbody" (Rstr (str_arg 0))
      | _, Some (Robj sock) ->
          let cur = match slot sock "wire" with Some (Rstr s) -> s | _ -> "" in
          set_slot sock "wire" (Rstr (cur ^ str_arg 0))
      | _, _ -> ());
      Rnull
  | Conn_input | Conn_code ->
      let conn = req_obj () in
      (* Perform the exchange once per connection. *)
      (if slot conn "body" = None then
         let uri_s = to_string (Option.value (slot conn "uri") ~default:(Rstr "")) in
         let meth =
           Option.value
             (Http.meth_of_string
                (to_string (Option.value (slot conn "meth") ~default:(Rstr "GET"))))
             ~default:Http.GET
         in
         let headers = collect_headers conn in
         let body =
           match slot conn "wbody" with
           | Some (Rstr s) -> body_of_written s
           | _ -> Http.No_body
         in
         match Uri.of_string_opt uri_s with
         | Some uri ->
             let resp =
               perform_request t (Http.request ~headers ~body meth uri)
             in
             set_slot conn "body" (Rstr (Http.body_to_string resp.Http.resp_body));
             set_slot conn "status" (Rint resp.Http.resp_status)
         | None ->
             set_slot conn "body" (Rstr "");
             set_slot conn "status" (Rint 400));
      if m = Libmodel.Conn_code then Option.value (slot conn "status") ~default:(Rint 200)
      else Robj conn
  (* ---------------- raw sockets (§4 extension) ---------------- *)
  | Socket_init ->
      let o = req_obj () in
      set_slot o "host" (arg 0);
      set_slot o "port" (arg 1);
      Rnull
  | Socket_output ->
      let os = new_obj Api.output_stream in
      set_slot os "sock" (Robj (req_obj ()));
      Robj os
  | Socket_input ->
      let sock = req_obj () in
      (if slot sock "body" = None then begin
         let wire = to_string (Option.value (slot sock "wire") ~default:(Rstr "")) in
         let host = to_string (Option.value (slot sock "host") ~default:(Rstr "")) in
         (* "METHOD path HTTP/1.1\r\nheaders\r\n\r\nbody" *)
         match String.index_opt wire ' ' with
         | Some sp -> (
             let meth_s = String.sub wire 0 sp in
             let rest = String.sub wire (sp + 1) (String.length wire - sp - 1) in
             match (Http.meth_of_string meth_s, String.index_opt rest ' ') with
             | Some meth, Some sp2 -> (
                 let path = String.sub rest 0 sp2 in
                 match Uri.of_string_opt ("http://" ^ host ^ path) with
                 | Some uri ->
                     let resp = perform_request t (Http.request meth uri) in
                     set_slot sock "body"
                       (Rstr (Http.body_to_string resp.Http.resp_body))
                 | None -> set_slot sock "body" (Rstr ""))
             | _, _ -> set_slot sock "body" (Rstr ""))
         | None -> set_slot sock "body" (Rstr "")
       end);
      Robj sock
  (* ---------------- volley ---------------- *)
  | Volley_request_init ->
      let o = req_obj () in
      set_slot o "meth" (arg 0);
      set_slot o "uri" (arg 1);
      set_slot o "listener" (arg 2);
      Rnull
  | Volley_add ->
      (match arg 0 with
      | Robj req -> (
          let uri_s = to_string (Option.value (slot req "uri") ~default:(Rstr "")) in
          let meth =
            Option.value
              (Http.meth_of_string
                 (to_string (Option.value (slot req "meth") ~default:(Rstr "GET"))))
              ~default:Http.GET
          in
          match Uri.of_string_opt uri_s with
          | Some uri ->
              let resp = perform_request t (Http.request meth uri) in
              let body_str = Http.body_to_string resp.Http.resp_body in
              (match slot req "listener" with
              | Some (Robj l) -> (
                  match callback l.ro_cls Callbacks.on_response with
                  | Some cb ->
                      ignore (exec_method t cb ~this:(Some (Robj l)) ~args:[ Rstr body_str ])
                  | None -> ())
              | _ -> ())
          | None -> ())
      | _ -> ());
      Rnull
  (* ---------------- okhttp ---------------- *)
  | Ok_builder_init ->
      set_slot (req_obj ()) "meth" (Rstr "GET");
      Rnull
  | Ok_url ->
      set_slot (req_obj ()) "uri" (arg 0);
      Robj (req_obj ())
  | Ok_header ->
      set_slot (req_obj ()) ("h:" ^ str_arg 0) (arg 1);
      Robj (req_obj ())
  | Ok_method ->
      let o = req_obj () in
      set_slot o "meth" (Rstr (String.uppercase_ascii name));
      set_slot o "rbody" (arg 0);
      Robj o
  | Ok_body_create ->
      let o = new_obj Api.okhttp_body in
      set_slot o "content" (Rstr (str_arg 0));
      Robj o
  | Ok_build ->
      let o = req_obj () in
      let r = new_obj Api.okhttp_request in
      Hashtbl.iter (fun k v -> Hashtbl.replace r.ro_slots k v) o.ro_slots;
      Robj r
  | Ok_new_call ->
      let c = new_obj Api.okhttp_call in
      set_slot c "req" (arg 0);
      Robj c
  | Ok_execute -> (
      match slot (req_obj ()) "req" with
      | Some (Robj req) ->
          let uri_s = to_string (Option.value (slot req "uri") ~default:(Rstr "")) in
          let meth =
            Option.value
              (Http.meth_of_string
                 (to_string (Option.value (slot req "meth") ~default:(Rstr "GET"))))
              ~default:Http.GET
          in
          let headers = collect_headers req in
          let body =
            match slot req "rbody" with
            | Some (Robj rb) -> (
                match slot rb "content" with
                | Some (Rstr s) -> body_of_written s
                | _ -> Http.No_body)
            | _ -> Http.No_body
          in
          (match Uri.of_string_opt uri_s with
          | Some uri ->
              let resp = perform_request t (Http.request ~headers ~body meth uri) in
              let r = new_obj Api.okhttp_response in
              set_slot r "body" (Rstr (Http.body_to_string resp.Http.resp_body));
              Robj r
          | None -> Robj (new_obj Api.okhttp_response))
      | _ -> Robj (new_obj Api.okhttp_response))
  | Ok_response_body -> Robj (req_obj ())
  | Ok_body_string -> Option.value (slot (req_obj ()) "body") ~default:(Rstr "")
  (* ---------------- media player ---------------- *)
  | Media_source ->
      (match Uri.of_string_opt (str_arg 0) with
      | Some uri -> ignore (perform_request t (Http.request Http.GET uri))
      | None -> ());
      Rnull
  (* ---------------- JSON ---------------- *)
  | Json_obj_init ->
      let o = req_obj () in
      (match args with
      | [] -> set_slot o "json" (Rjson (Json.Obj []))
      | v :: _ -> (
          match Json.of_string_opt (to_string v) with
          | Some j -> set_slot o "json" (Rjson j)
          | None -> set_slot o "json" (Rjson (Json.Obj []))));
      Rnull
  | Json_arr_init ->
      let o = req_obj () in
      (match args with
      | [] -> set_slot o "json" (Rjson (Json.List []))
      | v :: _ -> (
          match Json.of_string_opt (to_string v) with
          | Some j -> set_slot o "json" (Rjson j)
          | None -> set_slot o "json" (Rjson (Json.List []))));
      Rnull
  | Json_obj_put ->
      let o = req_obj () in
      let fields =
        match slot o "json" with Some (Rjson (Json.Obj fs)) -> fs | _ -> []
      in
      let v =
        match arg 1 with
        | Rint n -> Json.Int n
        | Rbool b -> Json.Bool b
        | Rjson j -> j
        | Robj jo -> (
            match slot jo "json" with Some (Rjson j) -> j | _ -> Json.Null)
        | other -> Json.Str (to_string other)
      in
      set_slot o "json" (Rjson (Json.Obj (fields @ [ (str_arg 0, v) ])));
      Robj o
  | Json_arr_put ->
      let o = req_obj () in
      let items =
        match slot o "json" with Some (Rjson (Json.List l)) -> l | _ -> []
      in
      let v =
        match arg 0 with
        | Rint n -> Json.Int n
        | Rbool b -> Json.Bool b
        | Rjson j -> j
        | other -> Json.Str (to_string other)
      in
      set_slot o "json" (Rjson (Json.List (items @ [ v ])));
      Robj o
  | Json_to_string -> (
      match slot (req_obj ()) "json" with
      | Some (Rjson j) -> Rstr (Json.to_string j)
      | _ -> Rstr "{}")
  | Json_get -> (
      let j = match slot (req_obj ()) "json" with Some (Rjson j) -> j | _ -> Json.Null in
      let lookup () =
        match (arg 0, j) with
        | Rstr k, Json.Obj _ -> Json.member k j
        | Rint idx, Json.List items -> List.nth_opt items idx
        | _, _ -> None
      in
      match name with
      | "getString" | "optString" -> (
          match lookup () with
          | Some (Json.Str s) -> Rstr s
          | Some v -> Rstr (Json.to_string v)
          | None -> Rstr "")
      | "getInt" -> (
          match lookup () with Some (Json.Int n) -> Rint n | _ -> Rint 0)
      | "getBoolean" -> (
          match lookup () with Some (Json.Bool b) -> Rbool b | _ -> Rbool false)
      | "getJSONObject" | "getJSONArray" ->
          let inner = new_obj i.Ir.iref.Ir.mcls in
          (match lookup () with
          | Some v -> set_slot inner "json" (Rjson v)
          | None -> set_slot inner "json" (Rjson Json.Null));
          Robj inner
      | "has" -> Rbool (lookup () <> None)
      | "length" -> (
          match j with Json.List items -> Rint (List.length items) | _ -> Rint 0)
      | _ -> Rnull)
  (* ---------------- gson ---------------- *)
  | Gson_to_json -> (
      match arg 0 with
      | Robj o ->
          let fields =
            Hashtbl.fold
              (fun k v acc ->
                match v with
                | Rint n -> (k, Json.Int n) :: acc
                | Rbool b -> (k, Json.Bool b) :: acc
                | other -> (k, Json.Str (to_string other)) :: acc)
              o.ro_slots []
            |> List.sort (fun (a, _) (b, _) -> compare a b)
          in
          Rstr (Json.to_string (Json.Obj fields))
      | _ -> Rstr "{}")
  | Gson_from_json ->
      let o = new_obj (str_arg 1) in
      (match Json.of_string_opt (str_arg 0) with
      | Some (Json.Obj fields) ->
          List.iter
            (fun (k, v) ->
              match v with
              | Json.Int n -> set_slot o k (Rint n)
              | Json.Bool b -> set_slot o k (Rbool b)
              | Json.Str s -> set_slot o k (Rstr s)
              | other -> set_slot o k (Rjson other))
            fields
      | _ -> ());
      Robj o
  (* ---------------- XML ---------------- *)
  | Xml_parse -> (
      match Xml.of_string_opt (str_arg 0) with
      | Some e -> Rxml e
      | None -> Rxml (Xml.element "empty" []))
  | Xml_child -> (
      match base with
      | Some (Rxml e) -> (
          let tag = str_arg 0 in
          let child =
            List.find_map
              (function
                | Xml.Elem c when c.Xml.tag = tag -> Some c
                | _ -> None)
              e.Xml.children
          in
          match child with
          | Some c -> Rxml c
          | None -> Rxml (Xml.element tag []))
      | _ -> Rxml (Xml.element (str_arg 0) []))
  | Xml_children ->
      let tag = str_arg 0 in
      let l = new_obj Api.array_list in
      let children =
        match base with
        | Some (Rxml e) ->
            List.filter_map
              (function Xml.Elem c when c.Xml.tag = tag -> Some c | _ -> None)
              e.Xml.children
        | _ -> []
      in
      set_slot l "n" (Rint (List.length children));
      List.iteri (fun idx c -> set_slot l (string_of_int idx) (Rxml c)) children;
      Robj l
  | Xml_attr -> (
      match base with
      | Some (Rxml e) ->
          Rstr (Option.value (List.assoc_opt (str_arg 0) e.Xml.attrs) ~default:"")
      | _ -> Rstr "")
  | Xml_text -> (
      match base with
      | Some (Rxml e) ->
          Rstr
            (String.concat ""
               (List.filter_map
                  (function Xml.Text s -> Some s | Xml.Elem _ -> None)
                  e.Xml.children))
      | _ -> Rstr "")
  (* ---------------- SQLite ---------------- *)
  | Db_write ->
      let table = str_arg 0 in
      let row =
        match Hashtbl.find_opt t.db table with
        | Some r -> r
        | None ->
            let r = Hashtbl.create 4 in
            Hashtbl.replace t.db table r;
            r
      in
      (match arg 1 with
      | Robj cv ->
          Hashtbl.iter
            (fun k v ->
              if String.length k > 2 && String.sub k 0 2 = "k:" then
                Hashtbl.replace row
                  (String.sub k 2 (String.length k - 2))
                  (to_string v))
            cv.ro_slots
      | _ -> ());
      Rnull
  | Db_query ->
      let c = new_obj Api.cursor in
      set_slot c "table" (Rstr (str_arg 0));
      Robj c
  | Cursor_get -> (
      let table =
        to_string (Option.value (slot (req_obj ()) "table") ~default:(Rstr ""))
      in
      match Hashtbl.find_opt t.db table with
      | Some row -> Rstr (Option.value (Hashtbl.find_opt row (str_arg 0)) ~default:"")
      | None -> Rstr "")
  | Cursor_next -> Rbool false
  (* ---------------- intents ---------------- *)
  | Intent_init ->
      set_slot (req_obj ()) "action" (arg 0);
      Rnull
  | Intent_put ->
      set_slot (req_obj ()) ("x:" ^ str_arg 0) (arg 1);
      Rnull
  | Intent_get -> Option.value (slot (req_obj ()) ("x:" ^ str_arg 0)) ~default:(Rstr "")
  | Start_service ->
      (* Dispatch to the intent service named by the intent's action: the
         implicit control flow Extractocol does not model (§4). *)
      (match arg 0 with
      | Robj it -> (
          let action = to_string (Option.value (slot it "action") ~default:(Rstr "")) in
          match callback action Callbacks.on_handle_intent with
          | Some handler ->
              let svc = new_obj action in
              (match base with
              | Some act -> set_slot svc "act" act
              | None -> ());
              ignore (exec_method t handler ~this:(Some (Robj svc)) ~args:[ Robj it ])
          | None -> ())
      | _ -> ());
      Rnull

(** Collect "h:"-prefixed header slots of a request-like object. *)
and collect_headers (o : robj) : (string * string) list =
  Hashtbl.fold
    (fun k v acc ->
      if String.length k > 2 && String.sub k 0 2 = "h:" then
        (String.sub k 2 (String.length k - 2), to_string v) :: acc
      else acc)
    o.ro_slots []
  |> List.sort compare

(** Interpret a written/entity body string as a typed HTTP body. *)
and body_of_written (s : string) : Http.body =
  match Json.of_string_opt s with
  | Some j -> Http.Json j
  | None ->
      if String.contains s '=' then Http.Query (Uri.query_of_string s)
      else Http.Text s

(** Perform an Apache-style exchange from a request object; returns the
    response object. *)
and apache_execute t (req : robj) : robj =
  let uri_s = to_string (Option.value (slot req "uri") ~default:(Rstr "")) in
  let meth =
    if req.ro_cls = Api.http_post then Http.POST
    else if req.ro_cls = Api.http_put then Http.PUT
    else if req.ro_cls = Api.http_delete then Http.DELETE
    else Http.GET
  in
  let headers = collect_headers req in
  let body =
    match slot req "entity" with
    | Some (Robj e) when e.ro_cls = Api.string_entity -> (
        match slot e "content" with
        | Some (Rstr s) -> body_of_written s
        | _ -> Http.No_body)
    | Some (Robj e) when e.ro_cls = Api.form_entity -> (
        match slot e "params" with
        | Some (Robj l) ->
            let n = match slot l "n" with Some (Rint n) -> n | _ -> 0 in
            let kvs =
              List.init n (fun idx ->
                  match slot l (string_of_int idx) with
                  | Some (Robj p) ->
                      ( to_string (Option.value (slot p "k") ~default:(Rstr "")),
                        to_string (Option.value (slot p "v") ~default:(Rstr "")) )
                  | _ -> ("", ""))
            in
            Http.Query kvs
        | _ -> Http.No_body)
    | _ -> Http.No_body
  in
  let resp_obj = new_obj Api.http_response in
  (match Uri.of_string_opt uri_s with
  | Some uri ->
      let resp = perform_request t (Http.request ~headers ~body meth uri) in
      set_slot resp_obj "body" (Rstr (Http.body_to_string resp.Http.resp_body));
      set_slot resp_obj "status" (Rint resp.Http.resp_status)
  | None ->
      set_slot resp_obj "body" (Rstr "");
      set_slot resp_obj "status" (Rint 400));
  resp_obj

(* ------------------------------------------------------------------ *)
(* Firing registered callbacks (driven by the fuzzers)                *)
(* ------------------------------------------------------------------ *)

(** Fire a registered callback with framework-provided arguments. *)
and fire t (r : registration) =
  match
    Prog.find_method t.prog
      { Ir.id_cls = r.rg_listener.ro_cls; id_name = Callbacks.callback r.rg_event }
  with
  | None -> ()
  | Some cb ->
      let args =
        Callbacks.event_args r.rg_event
          ~fresh:(fun cls -> Robj (new_obj cls))
          ~payload:(Rstr "{\"note\":\"content-update\"}")
      in
      ignore (exec_method t cb ~this:(Some (Robj r.rg_listener)) ~args)

(** Launch the app: run activity lifecycle entry points.  Returns the
    activity instances created. *)
and launch t : Rvalue.t list =
  let entries = Apk.entry_points t.apk in
  let singletons : (string, robj) Hashtbl.t = Hashtbl.create 4 in
  List.filter_map
    (fun (r : Ir.method_ref) ->
      let mid = Ir.method_id_of_ref r in
      match Prog.find_method t.prog mid with
      | None -> None
      | Some m ->
          let this =
            if m.Ir.m_static then None
            else begin
              match Hashtbl.find_opt singletons mid.Ir.id_cls with
              | Some o -> Some (Robj o)
              | None ->
                  let o = new_obj mid.Ir.id_cls in
                  Hashtbl.replace singletons mid.Ir.id_cls o;
                  Some (Robj o)
            end
          in
          ignore (exec_method t m ~this ~args:[]);
          this)
    entries
