(** Implicit call flows (§3.4): thread and HTTP libraries introduce
    callbacks a plain call graph misses — AsyncTask.execute() invokes
    doInBackground/onPostExecute, Timer.schedule() invokes run(), Volley's
    RequestQueue.add() reaches the listener's onResponse(), registered
    click listeners receive onClick(). *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog

val resolve : Extr_cfg.Callgraph.callback_resolver
(** The callback resolver wired into call-graph construction. *)

val trigger_names : string list
(** Method names, from the library-model table, of every call [resolve]
    can return callbacks for — the [callback_triggers] the call graph
    needs to find candidate implicit-edge sites through the method
    index. *)

val listener_of_request :
  Prog.t -> Ir.meth -> Ir.var -> Ir.method_id list
(** The [onResponse] method(s) of the listener a Volley-style request
    carries: scans the allocating method for the request's constructor
    call and resolves its listener argument's class. *)
