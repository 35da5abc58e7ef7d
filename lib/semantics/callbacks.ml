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

(* Where a modelled call hands control back to the app: the value that
   carries the listener and the callbacks the library invokes on it. *)
type carrier = Receiver | Arg of int

let listener : Api.model -> (carrier * string list) option = function
  | Libmodel.Async_execute ->
      (* execute(param) → doInBackground(param) → onPostExecute(result) *)
      Some (Receiver, [ "doInBackground"; "onPostExecute" ])
  | Libmodel.Timer_schedule -> Some (Arg 0, [ "run" ])
  | Libmodel.On_click -> Some (Arg 0, [ "onClick" ])
  | Libmodel.Volley_add ->
      (* The request object's listener (constructor argument) is resolved
         separately; the request's own class may also define onResponse
         when apps subclass StringRequest. *)
      Some (Arg 0, [ "onResponse" ])
  | Libmodel.Volley_request_init ->
      (* new StringRequest(method, url, listener) registers the listener. *)
      Some (Arg 2, [ "onResponse" ])
  | Libmodel.Location_updates -> Some (Arg 0, [ "onLocationChanged" ])
  | Libmodel.Push_subscribe -> Some (Arg 0, [ "onMessage" ])
  | _ -> None

let trigger_names = Api.method_names (fun m -> listener m <> None)

let resolve : Extr_cfg.Callgraph.callback_resolver =
 fun prog invoke ->
  let on_value v names =
    match v with Some v -> callbacks_on_arg prog v names | None -> []
  in
  match Option.bind (Api.model_of invoke) listener with
  | Some (Receiver, names) ->
      on_value (Option.map (fun b -> Ir.Local b) invoke.Ir.ibase) names
  | Some (Arg i, names) -> on_value (List.nth_opt invoke.Ir.iargs i) names
  | None -> []

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
             && Api.model_of i = Some Libmodel.Volley_request_init -> (
          match List.nth_opt i.Ir.iargs 2 with
          | Some (Ir.Local l) -> (
              match var_class l with
              | Some cls -> found := method_if_exists prog cls "onResponse" @ !found
              | None -> ())
          | Some (Ir.Const _) | None -> ())
      | Some _ | None -> ())
    meth.Ir.m_body;
  !found
