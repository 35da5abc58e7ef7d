(* Implicit call flows (§3.4): thread and HTTP libraries introduce
   callbacks that a plain call graph misses — AsyncTask.execute() invokes
   doInBackground/onPostExecute, Timer.schedule() invokes TimerTask.run(),
   Volley's RequestQueue.add() eventually invokes the listener's
   onResponse(), a registered click listener receives onClick().  This
   module resolves such edges so the call graph and the taint engine can
   follow them. *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog

(** The concrete application class of a variable, refined through the
    program hierarchy (receiver static type is the app subclass in the
    generated code). *)
let var_class (v : Ir.var) =
  match v.Ir.vty with Ir.Obj c -> Some c | Ir.Void | Ir.Int | Ir.Bool | Ir.Str | Ir.Arr _ -> None

let method_if_exists prog cls name =
  match Prog.find_method prog { Ir.id_cls = cls; id_name = name } with
  | Some _ -> [ { Ir.id_cls = cls; id_name = name } ]
  | None -> []

(** Given the static class of an argument value, the callback methods the
    library will invoke on it. *)
let callbacks_on_arg prog (value : Ir.value) names =
  match value with
  | Ir.Local v -> (
      match var_class v with
      | Some cls -> List.concat_map (method_if_exists prog cls) names
      | None -> [])
  | Ir.Const _ -> []

(* Every invoke name [resolve] can answer for.  The call graph finds
   candidate implicit-caller sites by looking these names up in the
   method index, so a new [resolve] arm MUST register its trigger here or
   its edges become invisible to caller queries. *)
let trigger_names =
  [
    "execute";
    "schedule";
    "setOnClickListener";
    "add";
    "<init>";
    "requestLocationUpdates";
    "subscribe";
  ]

let resolve : Extr_cfg.Callgraph.callback_resolver =
 fun prog invoke ->
  let arg i = List.nth_opt invoke.Ir.iargs i in
  let on_arg i names =
    match arg i with Some v -> callbacks_on_arg prog v names | None -> []
  in
  let on_base names =
    match invoke.Ir.ibase with
    | Some v -> (
        match var_class v with
        | Some cls -> List.concat_map (method_if_exists prog cls) names
        | None -> [])
    | None -> []
  in
  if Api.invoke_is invoke ~cls:Api.async_task ~name:"execute" then
    (* execute(param) → doInBackground(param) → onPostExecute(result) *)
    on_base [ "doInBackground"; "onPostExecute" ]
  else if Api.invoke_is invoke ~cls:Api.timer ~name:"schedule" then
    on_arg 0 [ "run" ]
  else if Api.invoke_is invoke ~cls:Api.view ~name:"setOnClickListener" then
    on_arg 0 [ "onClick" ]
  else if Api.invoke_is invoke ~cls:Api.request_queue ~name:"add" then
    (* The request object's listener (constructor argument) is resolved
       separately; the request's own class may also define onResponse when
       apps subclass StringRequest. *)
    on_arg 0 [ "onResponse" ]
  else if Api.invoke_is invoke ~cls:Api.string_request ~name:"<init>" then
    (* new StringRequest(method, url, listener) registers the listener. *)
    on_arg 2 [ "onResponse" ]
  else if
    Api.invoke_is invoke ~cls:Api.location_manager ~name:"requestLocationUpdates"
  then on_arg 0 [ "onLocationChanged" ]
  else if Api.invoke_is invoke ~cls:Api.firebase_messaging ~name:"subscribe" then
    on_arg 0 [ "onMessage" ]
  else []

(** The listener class carried by a Volley-style request object: the class
    of the third constructor argument of [new StringRequest(m, url, l)].
    Scans the allocating method for the constructor call on [req_var]. *)
let listener_of_request prog (meth : Ir.meth) (req_var : Ir.var) :
    Ir.method_id list =
  let found = ref [] in
  Array.iter
    (fun stmt ->
      match Ir.stmt_invoke stmt with
      | Some ({ Ir.ikind = Ir.Special; ibase = Some b; _ } as i)
        when b.Ir.vname = req_var.Ir.vname
             && Api.invoke_is i ~cls:Api.string_request ~name:"<init>" -> (
          match List.nth_opt i.Ir.iargs 2 with
          | Some (Ir.Local l) -> (
              match var_class l with
              | Some cls -> found := method_if_exists prog cls "onResponse" @ !found
              | None -> ())
          | Some (Ir.Const _) | None -> ())
      | Some _ | None -> ())
    meth.Ir.m_body;
  !found
