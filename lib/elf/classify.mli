(** File classification for Figure 1: ELF binaries vs. interpreted
    scripts, detected by shebang. *)

type interpreter = Dash | Bash | Python | Perl | Ruby | Other_interp of string

type t =
  | Elf_static
  | Elf_dynamic
  | Elf_shared_lib
  | Script of interpreter
  | Data  (** neither ELF nor an executable script *)

val name : t -> string
(** Human-readable label, matching Figure 1's legend. *)

val of_kind : Image.kind -> t
(** The class of a parsed ELF image: what {!classify} returns for the
    bytes it was parsed from. *)

val has_elf_magic : string -> bool
(** The bytes start with the ELF magic: {!classify} parses them, and
    they are [Data] exactly when the parse fails. *)

val classify : string -> t
(** Classify file contents: ELF magic + header kind, [#!] shebang, or
    plain data. *)
