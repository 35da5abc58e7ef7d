(* Program-level lookups: class hierarchy, method resolution (including
   virtual dispatch), and well-formedness validation. *)

open Types

type t = {
  program : program;
  classes : (string, cls) Hashtbl.t;
  methods : meth Method_map.t;
  mutable below : (string, string list) Hashtbl.t option;
      (** class → every class under it (inclusive): the CHA candidate
          sets, built on the first [subclasses] query *)
  callees_memo : (invoke_kind * string * string, meth list) Hashtbl.t;
      (** [callees] per (kind, receiver class, method name) — all that its
          answer depends on; most invokes of an app repeat a key *)
}

let of_program (p : program) =
  let classes = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace classes c.c_name c) p.p_classes;
  let methods =
    List.fold_left
      (fun acc c ->
        List.fold_left
          (fun acc m -> Method_map.add (method_id_of_meth m) m acc)
          acc c.c_methods)
      Method_map.empty p.p_classes
  in
  {
    program = p;
    classes;
    methods;
    below = None;
    callees_memo = Hashtbl.create 256;
  }

let find_class t name = Hashtbl.find_opt t.classes name

let find_method t (id : method_id) = Method_map.find_opt id t.methods

(** Walk the superclass chain from [cls] upward, inclusive.  Corrupt
    class data can declare a superclass cycle; the walk cuts it at the
    first repeated name instead of recursing forever. *)
let ancestry t cls =
  let rec go seen cls =
    if List.mem cls seen then []
    else
      match find_class t cls with
      | None -> [ cls ]
      | Some c -> (
          match c.c_super with
          | None -> [ cls ]
          | Some s -> cls :: go (cls :: seen) s)
  in
  go [] cls

let is_subclass t ~sub ~super =
  sub = super || List.mem super (ancestry t sub)

(** Resolve a virtual call on static receiver type [cls]: find the closest
    ancestor (including [cls] itself) that defines [mname]. *)
let resolve_virtual t ~cls ~mname =
  let rec walk = function
    | [] -> None
    | c :: rest -> (
        match find_method t { id_cls = c; id_name = mname } with
        | Some m -> Some m
        | None -> walk rest)
  in
  walk (ancestry t cls)

(** All subclasses of [cls] present in the program (inclusive), used for
    CHA-style call-graph construction: the classes whose ancestry holds
    [cls], in reverse order of a fold over the class table.  One walk up
    from every class files it under each of its ancestors, so a query is
    one lookup instead of an [is_subclass] test of every class. *)
let subclasses t cls =
  let below =
    match t.below with
    | Some b -> b
    | None ->
        let b = Hashtbl.create 64 in
        Hashtbl.fold
          (fun name _ () ->
            List.iter
              (fun anc ->
                Hashtbl.replace b anc
                  (name :: Option.value (Hashtbl.find_opt b anc) ~default:[]))
              (ancestry t name))
          t.classes ();
        t.below <- Some b;
        b
  in
  Option.value (Hashtbl.find_opt below cls) ~default:[]

(** CHA resolution of an invoke: the set of concrete methods it may reach.
    Virtual calls consider every subclass override; static and special calls
    resolve to a single target.  Library methods are excluded — they are
    handled by semantic models, not analyzed.  The answer depends only on
    the kind, the receiver class (the declared class for static and
    special calls) and the method name, so it is memoized on those. *)
let callees t (i : invoke) : meth list =
  let cls =
    match (i.ikind, i.ibase) with
    | Virtual, Some { vty = Obj c; _ } -> c
    | (Virtual | Static | Special), _ -> i.iref.mcls
  in
  let key = (i.ikind, cls, i.iref.mname) in
  match Hashtbl.find_opt t.callees_memo key with
  | Some ms -> ms
  | None ->
      let app_only m =
        match find_class t m.m_cls with
        | Some c when not c.c_library -> true
        | Some _ | None -> false
      in
      let ms =
        match i.ikind with
        | Static | Special -> (
            match find_method t { id_cls = cls; id_name = i.iref.mname } with
            | Some m when app_only m -> [ m ]
            | Some _ | None -> [])
        | Virtual ->
            let defining =
              List.filter_map
                (fun c -> find_method t { id_cls = c; id_name = i.iref.mname })
                (subclasses t cls)
            in
            let defining =
              (* If no subclass defines it, fall back to superclass
                 resolution. *)
              match defining with
              | [] -> (
                  match resolve_virtual t ~cls ~mname:i.iref.mname with
                  | Some m -> [ m ]
                  | None -> [])
              | ms -> ms
            in
            List.filter app_only defining
      in
      Hashtbl.add t.callees_memo key ms;
      ms

let app_methods t =
  Method_map.fold
    (fun id m acc ->
      match find_class t id.id_cls with
      | Some c when not c.c_library -> m :: acc
      | Some _ | None -> acc)
    t.methods []

let stmt_at t (sid : stmt_id) =
  match find_method t sid.sid_meth with
  | Some m when sid.sid_idx >= 0 && sid.sid_idx < Array.length m.m_body ->
      Some m.m_body.(sid.sid_idx)
  | Some _ | None -> None

(** Total statement count over application (non-library) methods; used for
    the slice-fraction measurement of Figure 3. *)
let app_stmt_count t =
  List.fold_left (fun acc m -> acc + Array.length m.m_body) 0 (app_methods t)

type validation_error = {
  ve_meth : method_id;
  ve_idx : int;
  ve_msg : string;
}

(** Check structural well-formedness: every branch target is a defined label,
    every used local is a parameter, [this], or defined somewhere in the body,
    and constructors invoked on classes that exist. *)
let validate t =
  let errors = ref [] in
  let err m idx msg =
    errors := { ve_meth = method_id_of_meth m; ve_idx = idx; ve_msg = msg } :: !errors
  in
  let check_meth (m : meth) =
    let labels = Hashtbl.create 8 in
    Array.iter
      (function Lab l -> Hashtbl.replace labels l () | _ -> ())
      m.m_body;
    let defined = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace defined v.vname ()) m.m_params;
    if not m.m_static then Hashtbl.replace defined "this" ();
    Array.iter
      (fun s ->
        match stmt_def s with
        | Some v -> Hashtbl.replace defined v.vname ()
        | None -> ())
      m.m_body;
    Array.iteri
      (fun idx s ->
        (match s with
        | If (_, l) | Goto l ->
            if not (Hashtbl.mem labels l) then
              err m idx (Printf.sprintf "undefined label %s" l)
        | Assign _ | InvokeStmt _ | Lab _ | Return _ | Nop -> ());
        List.iter
          (fun v ->
            if not (Hashtbl.mem defined v.vname) then
              err m idx (Printf.sprintf "undefined local %s" v.vname))
          (stmt_uses s);
        match stmt_invoke s with
        | Some { ikind = Special; iref; _ }
          when iref.mname = "<init>" && not (Hashtbl.mem t.classes iref.mcls) ->
            err m idx (Printf.sprintf "constructor of unknown class %s" iref.mcls)
        | Some _ | None -> ())
      m.m_body
  in
  List.iter check_meth (app_methods t);
  List.rev !errors
