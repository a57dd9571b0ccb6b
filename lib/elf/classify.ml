(** File classification for Figure 1: ELF binaries (static executables,
    dynamically-linked executables, shared libraries) vs. applications
    written in interpreted languages, detected by shebang, as in the
    paper's repository scan. *)

type interpreter = Dash | Bash | Python | Perl | Ruby | Other_interp of string

type t =
  | Elf_static
  | Elf_dynamic
  | Elf_shared_lib
  | Script of interpreter
  | Data  (** neither ELF nor an executable script *)

let interpreter_name = function
  | Dash -> "Shell (dash)"
  | Bash -> "Shell (bash)"
  | Python -> "Python"
  | Perl -> "Perl"
  | Ruby -> "Ruby"
  | Other_interp name -> name

let name = function
  | Elf_static -> "ELF static executable"
  | Elf_dynamic -> "ELF dynamic executable"
  | Elf_shared_lib -> "ELF shared library"
  | Script i -> interpreter_name i
  | Data -> "data"

let interpreter_of_path path =
  let base =
    match String.rindex_opt path '/' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  (* strip version suffixes: python3.4 -> python *)
  let stem =
    let n = String.length base in
    let rec strip i =
      if i > 0 && (match base.[i - 1] with '0' .. '9' | '.' -> true | _ -> false)
      then strip (i - 1)
      else i
    in
    String.sub base 0 (strip n)
  in
  match stem with
  | "sh" | "dash" -> Dash
  | "bash" -> Bash
  | "python" -> Python
  | "perl" -> Perl
  | "ruby" -> Ruby
  | other -> Other_interp other

let of_kind = function
  | Image.Exec_static -> Elf_static
  | Image.Exec_dynamic -> Elf_dynamic
  | Image.Shared_lib -> Elf_shared_lib

let has_elf_magic bytes = String.starts_with ~prefix:"\x7fELF" bytes

let classify bytes : t =
  let n = String.length bytes in
  if has_elf_magic bytes then
    match Reader.parse bytes with
    | Ok img -> of_kind img.Image.kind
    | Error _ -> Data
  else if n >= 2 && bytes.[0] = '#' && bytes.[1] = '!' then begin
    let line =
      match String.index_opt bytes '\n' with
      | Some i -> String.sub bytes 2 (i - 2)
      | None -> String.sub bytes 2 (n - 2)
    in
    let line = String.trim line in
    (* "#!/usr/bin/env python" names the interpreter in argv[1] *)
    let words =
      String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
    in
    match words with
    | [] -> Data
    | prog :: args ->
      let target =
        if Filename.basename prog = "env" then
          match args with a :: _ -> a | [] -> prog
        else prog
      in
      Script (interpreter_of_path target)
  end
  else Data
