(* Call graph over application methods, built with class-hierarchy analysis
   plus pluggable implicit-callback resolution.  Implicit call flows through
   thread/HTTP libraries (AsyncTask, Volley, Retrofit — §3.4) are injected
   by the semantics layer through [callback_resolver], mirroring how the
   paper adds EDGEMINER-style callback edges that FlowDroid misses.

   Construction follows BackDroid's index-then-explore design: only the
   method index is built up front, and a method's call sites are resolved
   on first visit, seeded by the slicer from the demarcation points it
   finds through the index.  Caller lookups go through the index too:
   every direct callee of an invoke shares the invoke's method name, so
   the index's per-name site list plus the registered callback-trigger
   names over-approximate any method's caller set; resolving just those
   candidate sites confirms it. *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Index = Extr_ir.Index
module Metrics = Extr_telemetry.Metrics

let m_resolved =
  Metrics.counter ~help:"methods whose call sites were resolved (CHA + callbacks)"
    "callgraph.methods_resolved"

type callsite = {
  cs_stmt : Ir.stmt_id;
  cs_invoke : Ir.invoke;
  cs_callees : Ir.method_id list;  (** resolved application-method targets *)
  cs_implicit : bool;  (** true when the edge comes from a callback model *)
}

(** [callback_resolver prog invoke] returns the application methods that
    the library call [invoke] will eventually invoke (e.g. [task.execute()]
    → [C.doInBackground] and [C.onPostExecute]). *)
type callback_resolver = Prog.t -> Ir.invoke -> Ir.method_id list

let no_callbacks : callback_resolver = fun _ _ -> []

(* Per-method resolution result: the record list in scan order, plus the
   same records bucketed by statement index for O(1) [callsite_at]. *)
type resolved = {
  rs_sites : callsite list;
  rs_by_idx : callsite list array;
}

let empty_resolved = { rs_sites = []; rs_by_idx = [||] }

type t = {
  prog : Prog.t;
  resolver : callback_resolver;
  index : Index.t;
  trigger_names : string list;
      (** invoke names the callback resolver can answer for; candidate
          implicit-caller sites are found through these *)
  resolved_tbl : (Ir.method_id, resolved) Hashtbl.t;
  callers_memo : (Ir.method_id, Ir.stmt_id list) Hashtbl.t;
  mutable trigger_hits : (Ir.method_id, (int * Ir.stmt_id) list) Hashtbl.t option;
      (** callee → (ordinal, site) hits among the trigger-name call sites,
          built once on the first caller query.  Trigger names include
          ["<init>"], so rescanning every trigger site per query made
          caller lookups quadratic in practice. *)
  (* Statement-level flow arrays, shared by every taint engine of the run
     (they used to be rebuilt per engine, for all methods, per slice). *)
  preds_memo : (Ir.method_id, int list array) Hashtbl.t;
  succs_memo : (Ir.method_id, int list array) Hashtbl.t;
}

(* One invoke's call-site records: the direct (CHA) record before the
   implicit (callback) record. *)
let resolve_invoke t (sid : Ir.stmt_id) (invoke : Ir.invoke) =
  let direct = Prog.callees t.prog invoke |> List.map Ir.method_id_of_meth in
  let implicit = t.resolver t.prog invoke in
  (* Keep only callbacks that exist as application methods. *)
  let implicit =
    List.filter
      (fun id ->
        match Prog.find_method t.prog id with
        | Some _ -> not (List.mem id direct)
        | None -> false)
      implicit
  in
  let implicit_record =
    if implicit = [] then []
    else
      [ { cs_stmt = sid; cs_invoke = invoke; cs_callees = implicit; cs_implicit = true } ]
  in
  if direct = [] then implicit_record
  else
    { cs_stmt = sid; cs_invoke = invoke; cs_callees = direct; cs_implicit = false }
    :: implicit_record

(* One method's call-site records, statements in order. *)
let resolve_method t (mid : Ir.method_id) : resolved =
  match Hashtbl.find_opt t.resolved_tbl mid with
  | Some r -> r
  | None -> (
      match Prog.find_method t.prog mid with
      | None -> empty_resolved
      | Some m ->
          let n = Array.length m.Ir.m_body in
          let by_idx = Array.make n [] in
          let sites = ref [] in
          Array.iteri
            (fun idx stmt ->
              match Ir.stmt_invoke stmt with
              | None -> ()
              | Some invoke ->
                  let records =
                    resolve_invoke t { Ir.sid_meth = mid; sid_idx = idx } invoke
                  in
                  by_idx.(idx) <- records;
                  sites := List.rev_append records !sites)
            m.Ir.m_body;
          let r = { rs_sites = List.rev !sites; rs_by_idx = by_idx } in
          Hashtbl.replace t.resolved_tbl mid r;
          Metrics.incr m_resolved;
          r)

let lazy_build ?(callback_resolver = no_callbacks) ?(callback_triggers = [])
    (prog : Prog.t) : t =
  {
    prog;
    resolver = callback_resolver;
    index = Index.build prog;
    trigger_names = callback_triggers;
    resolved_tbl = Hashtbl.create 256;
    callers_memo = Hashtbl.create 64;
    trigger_hits = None;
    preds_memo = Hashtbl.create 256;
    succs_memo = Hashtbl.create 256;
  }

let callsites t mid = (resolve_method t mid).rs_sites

let sites_by_stmt t mid = (resolve_method t mid).rs_by_idx

let callsite_at t (sid : Ir.stmt_id) =
  let r = resolve_method t sid.Ir.sid_meth in
  if sid.Ir.sid_idx >= 0 && sid.Ir.sid_idx < Array.length r.rs_by_idx then
    r.rs_by_idx.(sid.Ir.sid_idx)
  else []

(* [f callee (ordinal, site)] once per occurrence of a callee among the
   call-site records at one indexed site, given those records. *)
let iter_records f (s : Index.site) records =
  List.iter
    (fun cs ->
      List.iter (fun c -> f c (s.Index.st_ord, s.Index.st_stmt)) cs.cs_callees)
    records

let iter_hits t f (s : Index.site) =
  iter_records f s (callsite_at t s.Index.st_stmt)

(* Trigger names include ["<init>"], so their sites sit in most methods:
   each is resolved on its own (or read off its method, when that is
   resolved already), which leaves the method unresolved until something
   visits it. *)
let trigger_hits t =
  match t.trigger_hits with
  | Some m -> m
  | None ->
      let map = Hashtbl.create 64 in
      let add c hit =
        Hashtbl.replace map c
          (hit :: Option.value (Hashtbl.find_opt map c) ~default:[])
      in
      List.iter
        (fun name ->
          List.iter
            (fun (s : Index.site) ->
              let sid = s.Index.st_stmt in
              iter_records add s
                (match Hashtbl.find_opt t.resolved_tbl sid.Ir.sid_meth with
                | Some r -> r.rs_by_idx.(sid.Ir.sid_idx)
                | None -> resolve_invoke t sid s.Index.st_invoke))
            (Index.sites_invoking t.index name))
        (List.sort_uniq String.compare t.trigger_names);
      t.trigger_hits <- Some map;
      map

(* Direct edges to a callee can only come from sites invoking the callee's
   own name; implicit edges only from sites invoking a registered trigger
   name.  The callers are every hit at those sites, in descending
   statement ordinal. *)
let callers t callee =
  match Hashtbl.find_opt t.callers_memo callee with
  | Some l -> l
  | None ->
      let hits =
        ref (Option.value (Hashtbl.find_opt (trigger_hits t) callee) ~default:[])
      in
      (* When the callee's own name is a trigger, its name sites are
         already among the trigger hits. *)
      if not (List.mem callee.Ir.id_name t.trigger_names) then
        List.iter
          (iter_hits t (fun c hit ->
               if Ir.Method_id.equal c callee then hits := hit :: !hits))
          (Index.sites_invoking t.index callee.Ir.id_name);
      let result =
        List.sort (fun (a, _) (b, _) -> Int.compare b a) !hits |> List.map snd
      in
      Hashtbl.replace t.callers_memo callee result;
      result

let index t = t.index

let resolved_count t = Hashtbl.length t.resolved_tbl

(** All application methods transitively reachable from the entry points,
    following both explicit and implicit edges.  Explicit work-stack: deep
    synthetic call chains (--gen corpora) used to blow the OCaml stack
    here and surface as a spurious [crashed] quarantine. *)
let reachable_from t (entries : Ir.method_id list) =
  let seen = ref Ir.Method_set.empty in
  let stack = ref entries in
  let rec drain () =
    match !stack with
    | [] -> ()
    | mid :: rest ->
        stack := rest;
        if not (Ir.Method_set.mem mid !seen) then begin
          seen := Ir.Method_set.add mid !seen;
          List.iter
            (fun cs ->
              List.iter (fun c -> stack := c :: !stack) cs.cs_callees)
            (callsites t mid)
        end;
        drain ()
  in
  drain ();
  !seen

let stmt_preds t (mid : Ir.method_id) =
  match Hashtbl.find_opt t.preds_memo mid with
  | Some a -> Some a
  | None -> (
      match Prog.find_method t.prog mid with
      | None -> None
      | Some m ->
          let a = Cfg.stmt_predecessors m in
          Hashtbl.replace t.preds_memo mid a;
          Some a)

let stmt_succs t (mid : Ir.method_id) =
  match Hashtbl.find_opt t.succs_memo mid with
  | Some a -> Some a
  | None -> (
      match Prog.find_method t.prog mid with
      | None -> None
      | Some m ->
          let a = Cfg.stmt_successors m in
          Hashtbl.replace t.succs_memo mid a;
          Some a)
