(* Program-level lookups: class hierarchy, method resolution (including
   virtual dispatch), and well-formedness validation. *)

open Types

type t = {
  program : program;
  classes : (string, cls) Hashtbl.t;
  methods : meth Method_map.t;
  subclasses_memo : (string, string list) Hashtbl.t;
      (** receiver class → CHA candidate set; computing it walks the whole
          class table, and [callees] asks for it on every virtual invoke *)
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
  { program = p; classes; methods; subclasses_memo = Hashtbl.create 64 }

let find_class t name = Hashtbl.find_opt t.classes name

let find_method t (id : method_id) = Method_map.find_opt id t.methods

let find_method_ref t (r : method_ref) = find_method t (method_id_of_ref r)

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
    CHA-style call-graph construction.  Memoized per receiver class: the
    walk over the whole class table ran on every virtual invoke and
    dominated call-graph resolution. *)
let subclasses t cls =
  match Hashtbl.find_opt t.subclasses_memo cls with
  | Some l -> l
  | None ->
      let l =
        Hashtbl.fold
          (fun name _ acc ->
            if is_subclass t ~sub:name ~super:cls then name :: acc else acc)
          t.classes []
      in
      Hashtbl.add t.subclasses_memo cls l;
      l

(** CHA resolution of an invoke: the set of concrete methods it may reach.
    Virtual calls consider every subclass override; static and special calls
    resolve to a single target.  Library methods are excluded — they are
    handled by semantic models, not analyzed. *)
let callees t (i : invoke) : meth list =
  let app_only m =
    match find_class t m.m_cls with
    | Some c when not c.c_library -> true
    | Some _ | None -> false
  in
  match i.ikind with
  | Static | Special -> (
      match find_method_ref t i.iref with
      | Some m when app_only m -> [ m ]
      | Some _ | None -> [])
  | Virtual ->
      let receiver_cls =
        match i.ibase with Some { vty = Obj c; _ } -> c | Some _ | None -> i.iref.mcls
      in
      let candidates = subclasses t receiver_cls in
      let defining =
        List.filter_map
          (fun c -> find_method t { id_cls = c; id_name = i.iref.mname })
          candidates
      in
      let defining =
        (* If no subclass defines it, fall back to superclass resolution. *)
        match defining with
        | [] -> (
            match resolve_virtual t ~cls:receiver_cls ~mname:i.iref.mname with
            | Some m -> [ m ]
            | None -> [])
        | ms -> ms
      in
      List.filter app_only defining

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
