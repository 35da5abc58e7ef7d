(* ProGuard-style identifier renaming (§3.4 "Handling obfuscated
   libraries").  Renames application classes, methods, fields, and locals to
   semantically obscure names while leaving library classes and overriding
   methods of library callbacks intact (overrides must keep their names for
   dynamic dispatch, exactly as ProGuard preserves framework entry points).

   Extractocol is insensitive to application-identifier renaming because its
   demarcation points and semantic models key on library signatures; the
   evaluation verifies the same results hold on obfuscated APKs (§5). *)

module Ir = Extr_ir.Types
module Api = Extr_semantics.Api
module Callbacks = Extr_semantics.Callbacks

type mapping = {
  map_classes : (string, string) Hashtbl.t;
  map_methods : (string * string, string) Hashtbl.t;  (** (class, meth) → name *)
  map_fields : (string * string, string) Hashtbl.t;
}

let obscure_name i =
  (* a, b, ..., z, aa, ab, ... *)
  let rec go i acc =
    let c = Char.chr (Char.code 'a' + (i mod 26)) in
    let acc = String.make 1 c ^ acc in
    if i < 26 then acc else go ((i / 26) - 1) acc
  in
  go i ""

(** Method names that must survive obfuscation: constructors, lifecycle
    entry points and the callbacks library code invokes ({!Callbacks}). *)
let preserved_method_names =
  [ "<init>"; "onCreate"; "onResume"; "onStart"; "onErrorResponse"; "compare" ]
  @ Callbacks.names

(* Intent services keep their class names: startService finds one by the
   intent's action string, as ProGuard keeps manifest components. *)
let rec is_intent_service classes (c : Ir.cls) =
  match c.Ir.c_super with
  | Some s when s = Api.intent_service -> true
  | Some s ->
      List.exists
        (fun (p : Ir.cls) -> p.Ir.c_name = s && is_intent_service classes p)
        classes
  | None -> false

let build_mapping (prog : Ir.program) : mapping =
  let map_classes = Hashtbl.create 64 in
  let map_methods = Hashtbl.create 256 in
  let map_fields = Hashtbl.create 64 in
  let counter = ref 0 in
  let fresh prefix =
    let name = prefix ^ obscure_name !counter in
    incr counter;
    name
  in
  List.iter
    (fun c ->
      if not c.Ir.c_library then begin
        (* Package prefix is preserved so the scoping of §5.3 (analysis
           restricted to com.kayak classes) still works on obfuscated apps:
           ProGuard keeps apps inside their package by default. *)
        let pkg =
          match String.rindex_opt c.Ir.c_name '.' with
          | Some i -> String.sub c.Ir.c_name 0 (i + 1)
          | None -> ""
        in
        (* Kept intent services and handlers still draw their numbers, so no
           other name moves (obfuscated fields reach gson request bodies). *)
        let name = pkg ^ fresh "C" in
        if not (is_intent_service prog.Ir.p_classes c) then
          Hashtbl.replace map_classes c.Ir.c_name name;
        List.iter
          (fun (m : Ir.meth) ->
            if not (List.mem m.Ir.m_name preserved_method_names) then
              Hashtbl.replace map_methods (c.Ir.c_name, m.Ir.m_name) (fresh "m")
            else if m.Ir.m_name = Callbacks.on_handle_intent then ignore (fresh "m"))
          c.Ir.c_methods;
        List.iter
          (fun (f : Ir.field) ->
            Hashtbl.replace map_fields (c.Ir.c_name, f.Ir.f_name) (fresh "f"))
          c.Ir.c_fields
      end)
    prog.Ir.p_classes;
  { map_classes; map_methods; map_fields }

let rename_class mapping name =
  Option.value (Hashtbl.find_opt mapping.map_classes name) ~default:name

let rename_method mapping cls name =
  Option.value (Hashtbl.find_opt mapping.map_methods (cls, name)) ~default:name

let rename_field mapping cls name =
  Option.value (Hashtbl.find_opt mapping.map_fields (cls, name)) ~default:name

let rec rename_ty mapping = function
  | Ir.Obj c -> Ir.Obj (rename_class mapping c)
  | Ir.Arr t -> Ir.Arr (rename_ty mapping t)
  | (Ir.Void | Ir.Int | Ir.Bool | Ir.Str) as t -> t

let rename_var mapping (v : Ir.var) = { v with Ir.vty = rename_ty mapping v.Ir.vty }

let rename_value mapping = function
  | Ir.Local v -> Ir.Local (rename_var mapping v)
  | Ir.Const _ as c -> c

let rename_fref mapping (f : Ir.field_ref) =
  {
    Ir.fcls = rename_class mapping f.Ir.fcls;
    fname = rename_field mapping f.Ir.fcls f.Ir.fname;
    fty = rename_ty mapping f.Ir.fty;
  }

let rename_mref mapping (r : Ir.method_ref) =
  {
    r with
    Ir.mcls = rename_class mapping r.Ir.mcls;
    mname = rename_method mapping r.Ir.mcls r.Ir.mname;
    mret = rename_ty mapping r.Ir.mret;
  }

let rename_invoke mapping (i : Ir.invoke) =
  {
    i with
    Ir.iref = rename_mref mapping i.Ir.iref;
    ibase = Option.map (rename_var mapping) i.Ir.ibase;
    iargs = List.map (rename_value mapping) i.Ir.iargs;
  }

let rename_expr mapping = function
  | Ir.Val v -> Ir.Val (rename_value mapping v)
  | Ir.Binop (op, a, b) ->
      Ir.Binop (op, rename_value mapping a, rename_value mapping b)
  | Ir.New c -> Ir.New (rename_class mapping c)
  | Ir.NewArr (t, n) -> Ir.NewArr (rename_ty mapping t, rename_value mapping n)
  | Ir.IField (x, f) -> Ir.IField (rename_var mapping x, rename_fref mapping f)
  | Ir.SField f -> Ir.SField (rename_fref mapping f)
  | Ir.AElem (a, i) -> Ir.AElem (rename_var mapping a, rename_value mapping i)
  | Ir.ALen a -> Ir.ALen (rename_var mapping a)
  | Ir.Invoke i -> Ir.Invoke (rename_invoke mapping i)
  | Ir.Cast (t, v) -> Ir.Cast (rename_ty mapping t, rename_value mapping v)

let rename_lhs mapping = function
  | Ir.Lvar v -> Ir.Lvar (rename_var mapping v)
  | Ir.Lfield (x, f) -> Ir.Lfield (rename_var mapping x, rename_fref mapping f)
  | Ir.Lsfield f -> Ir.Lsfield (rename_fref mapping f)
  | Ir.Lelem (a, i) -> Ir.Lelem (rename_var mapping a, rename_value mapping i)

let rename_stmt mapping = function
  | Ir.Assign (l, e) -> Ir.Assign (rename_lhs mapping l, rename_expr mapping e)
  | Ir.InvokeStmt i -> Ir.InvokeStmt (rename_invoke mapping i)
  | Ir.If (v, l) -> Ir.If (rename_value mapping v, l)
  | (Ir.Goto _ | Ir.Lab _ | Ir.Nop) as s -> s
  | Ir.Return v -> Ir.Return (Option.map (rename_value mapping) v)

let rename_meth mapping (m : Ir.meth) =
  {
    m with
    Ir.m_cls = rename_class mapping m.Ir.m_cls;
    m_name = rename_method mapping m.Ir.m_cls m.Ir.m_name;
    m_params = List.map (rename_var mapping) m.Ir.m_params;
    m_ret = rename_ty mapping m.Ir.m_ret;
    m_body = Array.map (rename_stmt mapping) m.Ir.m_body;
  }

let rename_cls mapping (c : Ir.cls) =
  if c.Ir.c_library then c
  else
    {
      c with
      Ir.c_name = rename_class mapping c.Ir.c_name;
      c_super = Option.map (rename_class mapping) c.Ir.c_super;
      c_fields =
        List.map
          (fun (f : Ir.field) ->
            {
              f with
              Ir.f_name = rename_field mapping c.Ir.c_name f.Ir.f_name;
              f_ty = rename_ty mapping f.Ir.f_ty;
            })
          c.Ir.c_fields;
      c_methods = List.map (rename_meth mapping) c.Ir.c_methods;
    }

(** Build a renaming map covering the LIBRARY classes and their methods —
    the adversarial case of §3.4 ("when library code included in our
    semantic model is obfuscated").  Constructors keep their names (the
    VM's <init> is not renameable). *)
let build_library_mapping (prog : Ir.program) : mapping =
  let map_classes = Hashtbl.create 64 in
  let map_methods = Hashtbl.create 256 in
  let map_fields = Hashtbl.create 16 in
  let counter = ref 0 in
  let fresh prefix =
    let name = prefix ^ obscure_name !counter in
    incr counter;
    name
  in
  (* Method names used on library classes anywhere in the app. *)
  let lib_names = Hashtbl.create 16 in
  List.iter
    (fun c -> if c.Ir.c_library then Hashtbl.replace lib_names c.Ir.c_name ())
    prog.Ir.p_classes;
  List.iter
    (fun c -> if c.Ir.c_library then Hashtbl.replace map_classes c.Ir.c_name (fresh "L"))
    prog.Ir.p_classes;
  List.iter
    (fun c ->
      if not c.Ir.c_library then
        List.iter
          (fun (m : Ir.meth) ->
            Array.iter
              (fun stmt ->
                match Ir.stmt_invoke stmt with
                | Some i
                  when Hashtbl.mem lib_names i.Ir.iref.Ir.mcls
                       && i.Ir.iref.Ir.mname <> "<init>"
                       && not
                            (Hashtbl.mem map_methods
                               (i.Ir.iref.Ir.mcls, i.Ir.iref.Ir.mname)) ->
                    Hashtbl.replace map_methods
                      (i.Ir.iref.Ir.mcls, i.Ir.iref.Ir.mname)
                      (fresh "q")
                | _ -> ())
              m.Ir.m_body)
          c.Ir.c_methods)
    prog.Ir.p_classes;
  { map_classes; map_methods; map_fields }

let rename_program mapping (prog : Ir.program) ~rename_library_decls =
  {
    Ir.p_classes =
      List.map
        (fun c ->
          if c.Ir.c_library then
            if rename_library_decls then
              {
                c with
                Ir.c_name = rename_class mapping c.Ir.c_name;
                c_super = Option.map (rename_class mapping) c.Ir.c_super;
              }
            else c
          else
            (* App classes keep their own names here; only references into
               the library change. *)
            {
              c with
              Ir.c_super = Option.map (rename_class mapping) c.Ir.c_super;
              c_methods =
                List.map
                  (fun (m : Ir.meth) ->
                    {
                      m with
                      Ir.m_params = List.map (rename_var mapping) m.Ir.m_params;
                      m_ret = rename_ty mapping m.Ir.m_ret;
                      m_body = Array.map (rename_stmt mapping) m.Ir.m_body;
                    })
                  c.Ir.c_methods;
            })
        prog.Ir.p_classes;
    p_entries = prog.Ir.p_entries;
  }

(** Obfuscate the library surface an APK uses: library class names and the
    library method names the app calls are replaced throughout.  Without
    de-obfuscation, demarcation points and semantic models no longer match
    (§3.4). *)
let obfuscate_libraries (apk : Apk.t) : Apk.t * mapping =
  let prog = apk.Apk.program in
  let mapping = build_library_mapping prog in
  let program = rename_program mapping prog ~rename_library_decls:true in
  ({ apk with Apk.program }, mapping)

(** Obfuscate an APK; returns the obfuscated APK and the renaming map (the
    map exists only for ground-truth comparison in tests, mirroring how the
    paper verified identical results on ProGuard-processed apps). *)
let obfuscate (apk : Apk.t) : Apk.t * mapping =
  let prog = apk.Apk.program in
  let mapping = build_mapping prog in
  let program =
    {
      Ir.p_classes = List.map (rename_cls mapping) prog.Ir.p_classes;
      p_entries =
        List.map
          (fun (r : Ir.method_ref) ->
            {
              r with
              Ir.mcls = rename_class mapping r.Ir.mcls;
              mname = rename_method mapping r.Ir.mcls r.Ir.mname;
            })
          prog.Ir.p_entries;
    }
  in
  let manifest =
    {
      apk.Apk.manifest with
      Apk.mf_activities =
        List.map (rename_class mapping) apk.Apk.manifest.Apk.mf_activities;
    }
  in
  ({ apk with Apk.program; manifest }, mapping)
