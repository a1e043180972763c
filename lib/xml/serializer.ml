let escape gen s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' when gen -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_text = escape false
let escape_attr = escape true

(* Serialization-time namespace environment: maps URIs to prefixes. New
   URIs get fresh [nsN] prefixes declared on the element introducing them.
   A declaration is in scope only within that element's subtree, so the
   writers restore [bindings] once the element is closed. *)
type ns_env = { mutable bindings : (string * string) list; mutable next : int }

let prefix_for env buf uri =
  if uri = "" then ""
  else
    match List.assoc_opt uri env.bindings with
    | Some p -> p ^ ":"
    | None ->
      let p = Printf.sprintf "ns%d" env.next in
      env.next <- env.next + 1;
      env.bindings <- (uri, p) :: env.bindings;
      Buffer.add_string buf (Printf.sprintf " xmlns:%s=\"%s\"" p (escape_attr uri));
      p ^ ":"

let write_name env name =
  (* Any new xmlns declaration is returned separately so the caller can
     place it right after the element name. *)
  let decls = Buffer.create 0 in
  let p = prefix_for env decls (Name.uri name) in
  (p ^ Name.local name, Buffer.contents decls)

(* Write [<tag xmlns:... attrs] (unclosed) and return the tag. *)
let start_tag env buf (e : Tree.element) =
  let tag, decls = write_name env e.name in
  Buffer.add_char buf '<';
  Buffer.add_string buf tag;
  Buffer.add_string buf decls;
  List.iter
    (fun a ->
      let aname, adecls = write_name env a.Tree.attr_name in
      Buffer.add_string buf adecls;
      Buffer.add_string buf
        (Printf.sprintf " %s=\"%s\"" aname (escape_attr a.Tree.attr_value)))
    e.attrs;
  tag

let rec write env buf t =
  match t with
  | Tree.Text s -> Buffer.add_string buf (escape_text s)
  | Tree.Comment s ->
    Buffer.add_string buf "<!--";
    Buffer.add_string buf s;
    Buffer.add_string buf "-->"
  | Tree.Pi { target; data } ->
    Buffer.add_string buf (Printf.sprintf "<?%s %s?>" target data)
  | Tree.Element e ->
    let outer = env.bindings in
    let tag = start_tag env buf e in
    if e.children = [] then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      List.iter (write env buf) e.children;
      Buffer.add_string buf (Printf.sprintf "</%s>" tag)
    end;
    env.bindings <- outer

let to_string ?(decl = false) t =
  let buf = Buffer.create 256 in
  if decl then Buffer.add_string buf "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
  write { bindings = []; next = 1 } buf t;
  Buffer.contents buf

let only_text children =
  List.for_all (function Tree.Text _ -> true | _ -> false) children

let to_string_pretty ?(indent = 2) t =
  let buf = Buffer.create 256 in
  let env = { bindings = []; next = 1 } in
  let pad depth = Buffer.add_string buf (String.make (depth * indent) ' ') in
  let rec go depth t =
    pad depth;
    (match t with
     | Tree.Element e when e.children <> [] && not (only_text e.children) ->
       let outer = env.bindings in
       let tag = start_tag env buf e in
       Buffer.add_string buf ">\n";
       List.iter (go (depth + 1)) e.children;
       pad depth;
       Buffer.add_string buf (Printf.sprintf "</%s>" tag);
       env.bindings <- outer
     | t -> write env buf t);
    Buffer.add_char buf '\n'
  in
  go 0 t;
  (* Drop the final newline for symmetry with [to_string]. *)
  let s = Buffer.contents buf in
  if String.length s > 0 && s.[String.length s - 1] = '\n' then
    String.sub s 0 (String.length s - 1)
  else s
