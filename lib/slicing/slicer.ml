(* Network-aware program slicing (§3.1).  For every demarcation point in
   the application, compute:
     - the request slice: backward taint propagation from the request
       object (URI construction, body construction, headers);
     - the response slice: forward taint propagation from the response
       object (parsing, consumption);
     - object-aware augmentation: initialization context of objects used in
       forward slices;
     - the asynchronous-event heuristic (§3.4): backward propagation from
       setter statements of heap objects that carry request parts.  *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Index = Extr_ir.Index
module Callgraph = Extr_cfg.Callgraph
module Api = Extr_semantics.Api
module Demarcation = Extr_semantics.Demarcation
module Callbacks = Extr_semantics.Callbacks
module Fact = Extr_taint.Fact
module Forward = Extr_taint.Forward
module Backward = Extr_taint.Backward
module Metrics = Extr_telemetry.Metrics
module Profile = Extr_telemetry.Profile
module Provenance = Extr_provenance.Provenance
module Resilience = Extr_resilience.Resilience

let src = Logs.Src.create "extractocol.slicer" ~doc:"Network-aware program slicing"

module Log = (val Logs.src_log src : Logs.LOG)

let m_dps =
  Metrics.counter ~help:"demarcation points discovered"
    "slicer.demarcation_points"

let m_slice_stmts =
  Metrics.histogram ~help:"per-DP slice sizes in statements (kind=request|response)"
    "slicer.slice_stmts"

let m_augmented =
  Metrics.counter ~help:"statements added by object-aware augmentation"
    "slicer.augmented_stmts"

type dp_site = {
  dp_stmt : Ir.stmt_id;
  dp_invoke : Ir.invoke;
  dp_info : Demarcation.t;
}

type slice = {
  sl_dp : dp_site;
  sl_stmts : Ir.Stmt_set.t;
}

type result = {
  r_dps : dp_site list;
  r_request : slice list;  (** one request slice per demarcation point *)
  r_response : slice list;  (** one response slice per demarcation point *)
  r_stats : stats;
}

and stats = {
  st_total_stmts : int;
  st_slice_stmts : int;  (** statements in the union of all slices *)
}

(* ------------------------------------------------------------------ *)
(* Demarcation point discovery                                        *)
(* ------------------------------------------------------------------ *)

(** Demarcation-point invokes among the indexed call sites whose invoked
    name matches a registry entry — BackDroid's bytecode-search step —
    in global scan order.  [scope] optionally restricts discovery to
    classes with the given prefix (the Kayak analysis scopes to com.kayak
    classes, §5.3). *)
let find_demarcation_points ?scope (ix : Index.t) : dp_site list =
  let in_scope_cls cls =
    match scope with
    | None -> true
    | Some prefix ->
        String.length cls >= String.length prefix
        && String.sub cls 0 (String.length prefix) = prefix
  in
  List.concat_map (Index.sites_invoking ix) Demarcation.method_names
  |> List.sort (fun (a : Index.site) b -> compare a.Index.st_ord b.Index.st_ord)
  |> List.filter_map (fun (s : Index.site) ->
         if not (in_scope_cls s.Index.st_stmt.Ir.sid_meth.Ir.id_cls) then None
         else
           match Demarcation.find s.Index.st_invoke with
           | Some info ->
               Some
                 {
                   dp_stmt = s.Index.st_stmt;
                   dp_invoke = s.Index.st_invoke;
                   dp_info = info;
                 }
           | None -> None)

(* ------------------------------------------------------------------ *)
(* Request (backward) slices                                          *)
(* ------------------------------------------------------------------ *)

let request_root (dp : dp_site) : Ir.var option =
  match dp.dp_info.Demarcation.dp_request with
  | Demarcation.Arg i -> (
      match List.nth_opt dp.dp_invoke.Ir.iargs i with
      | Some (Ir.Local v) -> Some v
      | Some (Ir.Const _) | None -> None)
  | Demarcation.Recv -> dp.dp_invoke.Ir.ibase

(** Statements storing to one of the given instance fields, anywhere in the
    program — the setter statements the async heuristic restarts from —
    from the index's per-field store lists, in global scan order. *)
let field_store_sites (ix : Index.t) (fields : (string * string) list) =
  List.concat_map (Index.field_stores ix) fields
  |> List.sort (fun (a : Index.store) b -> compare a.Index.fs_ord b.Index.fs_ord)
  |> List.map (fun (s : Index.store) ->
         let mid = s.Index.fs_stmt.Ir.sid_meth in
         (s.Index.fs_stmt, Fact.local_path mid s.Index.fs_var s.Index.fs_field.Ir.fname))

let request_slice ?budget ~async_heuristic ~async_iterations prog cg
    (dp : dp_site) : slice =
  let engine = Backward.create prog cg in
  (match request_root dp with
  | Some v ->
      Backward.inject_at engine dp.dp_stmt
        [ Fact.local dp.dp_stmt.Ir.sid_meth v ]
  | None -> ());
  Backward.run ?budget engine;
  let stmts, async_setters =
    if not async_heuristic then (Backward.touched_stmts engine, [])
    else begin
      (* §3.4: for each heap object carrying request parts, restart
         backward propagation from its setter statements.  The default is
         one hop; the paper's multiple-iterations variant repeats until no
         new heap carriers appear (bounded by [async_iterations]).  The
         engine is resumed, not rebuilt: the fixpoint already reached is a
         sound intermediate point of the extended one (injections only
         grow), so resuming converges to the identical fixpoint without
         re-deriving the whole first round. *)
      let rec iterate k setters known_fields =
        let fields =
          List.sort_uniq compare (Fact.field_facts (Backward.all_facts engine))
        in
        if k <= 0 || fields = known_fields then
          (Backward.touched_stmts engine, setters)
        else begin
          let setters' = field_store_sites (Callgraph.index cg) fields in
          List.iter
            (fun (sid, fact) -> Backward.inject_at engine sid [ fact ])
            setters';
          Backward.run ?budget engine;
          iterate (k - 1) setters' fields
        end
      in
      iterate (max 1 async_iterations) [] []
    end
  in
  if Provenance.is_enabled Provenance.default then begin
    let dp_sid = dp.dp_stmt in
    Provenance.record_slice_step Provenance.default ~dp:dp_sid ~stmt:dp_sid
      Provenance.Dp_discovered;
    let setter_sids = List.map fst async_setters in
    List.iter
      (fun sid ->
        Provenance.record_slice_step Provenance.default ~dp:dp_sid ~stmt:sid
          Provenance.Async_setter)
      setter_sids;
    (* Set membership, not List.mem: the touched set times the setter list
       made this loop quadratic with --explain on. *)
    let setter_set = Ir.Stmt_set.of_list setter_sids in
    Ir.Stmt_set.iter
      (fun sid ->
        if (not (Ir.Stmt_id.equal sid dp_sid)) && not (Ir.Stmt_set.mem sid setter_set)
        then
          Provenance.record_slice_step Provenance.default ~dp:dp_sid ~stmt:sid
            Provenance.Backward_taint)
      stmts
  end;
  { sl_dp = dp; sl_stmts = Ir.Stmt_set.add dp.dp_stmt stmts }

(* ------------------------------------------------------------------ *)
(* Response (forward) slices                                          *)
(* ------------------------------------------------------------------ *)

(** The variable receiving the response at the demarcation point (for
    [Ret]-style bindings): the definition of the assign statement. *)
let response_def prog (dp : dp_site) : Ir.var option =
  match Prog.stmt_at prog dp.dp_stmt with
  | Some (Ir.Assign (Ir.Lvar v, Ir.Invoke _)) -> Some v
  | Some _ | None -> None

(** Callback entry points receiving the response for listener-style DPs. *)
let response_callback_roots prog (dp : dp_site) : (Ir.method_id * Ir.var) list =
  match dp.dp_info.Demarcation.dp_response with
  | Demarcation.Listener_callback { arg_idx; callback = _ } -> (
      match List.nth_opt dp.dp_invoke.Ir.iargs arg_idx with
      | Some (Ir.Local req_var) -> (
          match Prog.find_method prog dp.dp_stmt.Ir.sid_meth with
          | Some meth ->
              Callbacks.listener_of_request prog meth req_var
              |> List.filter_map (fun cb_id ->
                     match Prog.find_method prog cb_id with
                     | Some cb -> (
                         match cb.Ir.m_params with
                         | p :: _ -> Some (cb_id, p)
                         | [] -> None)
                     | None -> None)
          | None -> [])
      | Some (Ir.Const _) | None -> [])
  | Demarcation.Ret | Demarcation.Base | Demarcation.Opaque_sink -> []

let response_slice ?budget prog cg (dp : dp_site) : slice =
  let engine = Forward.create prog cg in
  (match dp.dp_info.Demarcation.dp_response with
  | Demarcation.Ret | Demarcation.Base -> (
      match response_def prog dp with
      | Some v ->
          Forward.inject_after engine dp.dp_stmt
            [ Fact.local dp.dp_stmt.Ir.sid_meth v ]
      | None -> ())
  | Demarcation.Listener_callback _ ->
      List.iter
        (fun (cb_id, param) ->
          Forward.inject_at_entry engine cb_id [ Fact.local cb_id param ])
        (response_callback_roots prog dp)
  | Demarcation.Opaque_sink -> ());
  Forward.run ?budget engine;
  let stmts = Forward.tainted_stmts engine in
  if Provenance.is_enabled Provenance.default then
    Ir.Stmt_set.iter
      (fun sid ->
        Provenance.record_slice_step Provenance.default ~dp:dp.dp_stmt ~stmt:sid
          Provenance.Forward_taint)
      stmts;
  { sl_dp = dp; sl_stmts = stmts }

(* ------------------------------------------------------------------ *)
(* Object-aware slice augmentation (§3.1)                              *)
(* ------------------------------------------------------------------ *)

(** Augment a forward slice with the complete context of the objects it
    uses: repeatedly add statements (in the same methods) that define a
    variable or write a field that an already-included statement reads,
    until no statements are added. *)
let augment_response_slice prog (sl : slice) : slice =
  let methods =
    Ir.Stmt_set.fold
      (fun sid acc -> Ir.Method_set.add sid.Ir.sid_meth acc)
      sl.sl_stmts Ir.Method_set.empty
  in
  let included = ref sl.sl_stmts in
  let prof =
    Profile.cursor ~phase:"slicing.augment" ~render:Ir.Method_id.to_string ()
  in
  (* Augmentation never crosses a method boundary (uses and the defining
     statements added for them live in the same body), so each method
     closes independently — a local fixpoint per method reaches the same
     closure as the old global re-scan-everything loop, without rescanning
     stable methods every time any method grows. *)
  Ir.Method_set.iter
    (fun mid ->
      Profile.visit prof mid;
      match Prog.find_method prog mid with
      | None -> ()
      | Some m ->
          let changed = ref true in
          while !changed do
            changed := false;
            (* Variables and fields read by included statements of m. *)
            let used_vars = Hashtbl.create 16 in
            let used_fields = Hashtbl.create 16 in
            Array.iteri
              (fun idx stmt ->
                let sid = { Ir.sid_meth = mid; sid_idx = idx } in
                if Ir.Stmt_set.mem sid !included then begin
                  List.iter
                    (fun (v : Ir.var) -> Hashtbl.replace used_vars v.Ir.vname ())
                    (Ir.stmt_uses stmt);
                  match stmt with
                  | Ir.Assign (_, Ir.IField (_, f)) ->
                      Hashtbl.replace used_fields (f.Ir.fcls, f.Ir.fname) ()
                  | _ -> ()
                end)
              m.Ir.m_body;
            (* Add defining statements not yet included. *)
            Array.iteri
              (fun idx stmt ->
                let sid = { Ir.sid_meth = mid; sid_idx = idx } in
                if not (Ir.Stmt_set.mem sid !included) then begin
                  let defines_used =
                    match Ir.stmt_def stmt with
                    | Some v -> Hashtbl.mem used_vars v.Ir.vname
                    | None -> (
                        match stmt with
                        | Ir.Assign (Ir.Lfield (_, f), _) ->
                            Hashtbl.mem used_fields (f.Ir.fcls, f.Ir.fname)
                        | Ir.InvokeStmt { Ir.ibase = Some b; _ } ->
                            (* Mutating calls on used objects (constructors,
                               builder appends) complete the object context. *)
                            Hashtbl.mem used_vars b.Ir.vname
                        | _ -> false)
                  in
                  if defines_used then begin
                    included := Ir.Stmt_set.add sid !included;
                    Profile.add_facts prof 1;
                    changed := true
                  end
                end)
              m.Ir.m_body
          done)
    methods;
  Profile.close prof;
  if Provenance.is_enabled Provenance.default then
    Ir.Stmt_set.iter
      (fun sid ->
        if not (Ir.Stmt_set.mem sid sl.sl_stmts) then
          Provenance.record_slice_step Provenance.default ~dp:sl.sl_dp.dp_stmt
            ~stmt:sid Provenance.Augmented)
      !included;
  { sl with sl_stmts = !included }

(* ------------------------------------------------------------------ *)
(* End-to-end slicing                                                 *)
(* ------------------------------------------------------------------ *)

type options = {
  opt_async_heuristic : bool;  (** §3.4 heuristic (on for closed-source) *)
  opt_async_iterations : int;
      (** heap-carrier hops to follow: 1 = the paper's implementation,
          higher values are its suggested multi-iteration extension *)
  opt_augmentation : bool;  (** object-aware augmentation *)
  opt_scope : string option;  (** class-prefix scope (§5.3) *)
  opt_budget : Resilience.Budget.t option;
      (** shared per-run budget the taint engines spend from; [None]
          gives each engine its own historical 2M-step bound *)
}

let default_options =
  {
    opt_async_heuristic = false;
    opt_async_iterations = 1;
    opt_augmentation = true;
    opt_scope = None;
    opt_budget = None;
  }

let run ?(options = default_options) (prog : Prog.t) (cg : Callgraph.t) : result =
  let telemetry = Metrics.is_enabled Metrics.default in
  let dps =
    find_demarcation_points ?scope:options.opt_scope (Callgraph.index cg)
  in
  Metrics.incr m_dps ~by:(List.length dps);
  let observe_size kind sl =
    if telemetry then
      Metrics.observe m_slice_stmts
        ~labels:[ ("kind", kind) ]
        (float_of_int (Ir.Stmt_set.cardinal sl.sl_stmts))
  in
  let request =
    List.map
      (fun dp ->
        let sl =
          request_slice ?budget:options.opt_budget
            ~async_heuristic:options.opt_async_heuristic
            ~async_iterations:options.opt_async_iterations prog cg dp
        in
        observe_size "request" sl;
        sl)
      dps
  in
  let response =
    List.map
      (fun dp ->
        let sl = response_slice ?budget:options.opt_budget prog cg dp in
        let sl =
          if options.opt_augmentation then begin
            let augmented = augment_response_slice prog sl in
            if telemetry then
              Metrics.incr m_augmented
                ~by:
                  (Ir.Stmt_set.cardinal augmented.sl_stmts
                  - Ir.Stmt_set.cardinal sl.sl_stmts);
            augmented
          end
          else sl
        in
        observe_size "response" sl;
        sl)
      dps
  in
  let union =
    List.fold_left
      (fun acc sl -> Ir.Stmt_set.union acc sl.sl_stmts)
      Ir.Stmt_set.empty (request @ response)
  in
  let slice_stmts = Ir.Stmt_set.cardinal union in
  let total_stmts = Prog.app_stmt_count prog in
  Log.info (fun m ->
      m "slicing: %d demarcation points, %d/%d statements in slices"
        (List.length dps) slice_stmts total_stmts);
  {
    r_dps = dps;
    r_request = request;
    r_response = response;
    r_stats = { st_total_stmts = total_stmts; st_slice_stmts = slice_stmts };
  }

(** Fraction of application code covered by the slices (Figure 3 reports
    6.3 % for Diode). *)
let slice_fraction (r : result) =
  if r.r_stats.st_total_stmts = 0 then 0.0
  else float_of_int r.r_stats.st_slice_stmts /. float_of_int r.r_stats.st_total_stmts
