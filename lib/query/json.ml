(** Minimal JSON reader/printer for the serve protocol. The project
    deliberately carries no JSON dependency (the serving surface is a
    line-delimited request/response loop, not a web stack), so this is
    a small total parser: any malformed input yields [Error], never an
    exception. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape buf s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* NaN/infinity are mapped to null by the caller before we get here.
   An integer-valued number below 1e15 converts to [int] exactly and
   prints as [Printf "%.0f"] would, at a fraction of its cost; only
   -0.0 needs its sign spelled out. *)
let add_num buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0.0 && Float.sign_bit f then Buffer.add_string buf "-0"
    else Buffer.add_string buf (string_of_int (int_of_float f))
  else Buffer.add_string buf (Printf.sprintf "%.17g" f)

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Num f ->
    if Float.is_nan f || Float.abs f = Float.infinity then
      Buffer.add_string buf "null"
    else add_num buf f
  | Str s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        add buf x)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape buf k;
        Buffer.add_string buf "\":";
        add buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* The shortest of %.15g/%.16g/%.17g that reads back as [f]: a file
   meant for people keeps 0.1 as "0.1", yet parses back exactly. *)
let shortest f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s
  else
    let s = Printf.sprintf "%.16g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* One item per line between [opening] and [closing], the items
   [indent + 2] deep. *)
let add_block buf indent opening closing item items =
  Buffer.add_char buf opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (indent + 2) ' ');
      item x)
    items;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make indent ' ');
  Buffer.add_char buf closing

let to_string_indented v =
  let buf = Buffer.create 1024 in
  let rec go indent = function
    | Num f when Float.is_finite f && not (Float.is_integer f) ->
      Buffer.add_string buf (shortest f)
    | Arr (_ :: _ as items) ->
      add_block buf indent '[' ']' (go (indent + 2)) items
    | Obj (_ :: _ as fields) ->
      add_block buf indent '{' '}'
        (fun (k, v) ->
          add buf (Str k);
          Buffer.add_string buf ": ";
          go (indent + 2) v)
        fields
    | v -> add buf v
  in
  go 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of string

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    && (match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some got when got = ch -> c.pos <- c.pos + 1
  | Some got -> raise (Bad (Printf.sprintf "expected %c, got %c" ch got))
  | None -> raise (Bad (Printf.sprintf "expected %c, got end of input" ch))

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else raise (Bad ("invalid literal at offset " ^ string_of_int c.pos))

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end

let hex4 c =
  if c.pos + 4 > String.length c.s then raise (Bad "truncated \\u escape");
  let v =
    try int_of_string ("0x" ^ String.sub c.s c.pos 4)
    with _ -> raise (Bad "invalid \\u escape")
  in
  c.pos <- c.pos + 4;
  v

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> raise (Bad "unterminated string")
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' ->
      c.pos <- c.pos + 1;
      (match peek c with
       | None -> raise (Bad "unterminated escape")
       | Some e ->
         c.pos <- c.pos + 1;
         (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            let hi = hex4 c in
            let code =
              if hi >= 0xd800 && hi <= 0xdbff then begin
                (* surrogate pair *)
                expect c '\\';
                expect c 'u';
                let lo = hex4 c in
                if lo < 0xdc00 || lo > 0xdfff then
                  raise (Bad "unpaired surrogate");
                0x10000 + ((hi - 0xd800) lsl 10) + (lo - 0xdc00)
              end
              else if hi >= 0xdc00 && hi <= 0xdfff then
                raise (Bad "unpaired surrogate")
              else hi
            in
            add_utf8 buf code
          | _ -> raise (Bad "unknown escape")));
      go ()
    | Some ch ->
      c.pos <- c.pos + 1;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < String.length c.s && num_char c.s.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let span = String.sub c.s start (c.pos - start) in
  match float_of_string_opt span with
  | Some f -> Num f
  | None -> raise (Bad ("invalid number: " ^ span))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> raise (Bad "empty input")
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          fields ((k, v) :: acc)
        | Some '}' ->
          c.pos <- c.pos + 1;
          List.rev ((k, v) :: acc)
        | _ -> raise (Bad "expected , or } in object")
      in
      Obj (fields [])
    end
  | Some '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some ']' then begin
      c.pos <- c.pos + 1;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          items (v :: acc)
        | Some ']' ->
          c.pos <- c.pos + 1;
          List.rev (v :: acc)
        | _ -> raise (Bad "expected , or ] in array")
      in
      Arr (items [])
    end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> raise (Bad (Printf.sprintf "unexpected character %c" ch))

let parse s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then Error "trailing garbage after value"
    else Ok v
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f < 1e15 ->
    Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr items -> Some items | _ -> None
