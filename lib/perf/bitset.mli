(** Flat fixed-universe bitsets: the packed data plane of the query
    engine. A bitset over universe size [u] is a [(u + 62) / 63]-word
    [int array]; membership is one shift and mask, and the set algebra
    the hot paths need — intersection, union, subset, population count
    — runs word-wise, so a subset test over a few hundred elements
    costs a handful of word compares instead of an element-wise scan.

    Bitsets are mutable but cheap to copy; the query index freezes
    them after construction and only ever reads them from worker
    domains, which is safe (plain [int array] reads, no resizing). *)

type t

val create : int -> t
(** [create u] is the empty set over universe [0 .. u-1]. *)

val universe : t -> int
(** The universe size the set was created with. *)

val add : t -> int -> unit
(** Set membership bit [i]. Raises [Invalid_argument] outside the
    universe. *)

val remove : t -> int -> unit

val mem : t -> int -> bool
(** Membership; total — ids outside the universe are simply absent. *)

val cardinal : t -> int
(** Population count (word-wise SWAR, no per-bit loop). *)

val is_empty : t -> bool

val subset : t -> t -> bool
(** [subset a b] is [a ⊆ b]. The universes must match. *)

val inter : t -> t -> t
(** Fresh intersection. The universes must match. *)

val union : t -> t -> t
(** Fresh union. The universes must match. *)

val union_into : into:t -> t -> unit
(** [union_into ~into src] is [into := into ∪ src] word-wise — the
    closure accumulation primitive. The universes must match. *)

val equal : t -> t -> bool
val copy : t -> t

val words : t -> int array
(** The backing word array ([universe / 63] rounded up, tail bits
    clear). Exposed so fused hot loops (the query engine's per-class
    subset tests) and wire encoders can run word-wise without a
    per-element function call; callers must treat it as read-only. *)

val key : t -> string
(** A string equal iff the sets are equal over equal universes — the
    hashtable key for deduplicating structurally shared bitsets. *)

val iter : (int -> unit) -> t -> unit
(** Ascending order; skips empty words, then walks set bits only. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending fold over members. *)

val to_sorted_array : t -> int array

val of_list : int -> int list -> t
(** [of_list u ids] adds every id, ignoring ids outside the universe
    (callers filter semantically, not defensively). *)

val to_bytes : t -> string
(** Little-endian bit packing — bit [i] lives in byte [i / 8] at bit
    [i mod 8] — independent of the in-memory word size, for wire
    formats. Length is [(universe + 7) / 8]. *)

val of_bytes : int -> string -> (t, string) result
(** Inverse of {!to_bytes} for a universe size; rejects a byte string
    of the wrong length or with set bits beyond the universe. *)

val words_for : int -> int
(** Words backing a universe of the given size: [(u + 62) / 63]. *)

(** {2 Word stores}

    The numeric planes of the query index (class rows, package
    weights, survival products) are addressed through these two sums
    so the same hot loops run against freshly built heap arrays or a
    format-4 snapshot image mapped read-only via
    [Unix.map_file]/[Bigarray.Array1] — bit-identical in both modes.
    A mapped int-kind read keeps the low 63 bits of each on-disk
    little-endian word, the same truncation [Int64.to_int] applies on
    the copying decode path. The constructors are exposed so hot
    loops can dispatch once per call and then run monomorphically. *)

type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type float_ba =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type words =
  | Words_heap of int array
  | Words_map of { wba : int_ba; woff : int; wlen : int }
      (** [wlen] words starting at element [woff] of [wba] *)

type floats =
  | Floats_heap of float array
  | Floats_map of { fba : float_ba; foff : int; flen : int }

val words_get : words -> int -> int
(** Bounds-checked element read (both backends). *)

val words_to_array : words -> int array
(** Materialize to a fresh heap array (both backends). *)

val floats_get : floats -> int -> float
val floats_to_array : floats -> float array

val words_sub : words -> int -> int -> int array
(** [words_sub s pos len] materializes elements [pos .. pos+len-1] to
    a fresh heap array (both backends) — the range-sliced image
    writer's plane extractor. Raises [Invalid_argument] out of range. *)

val floats_sub : floats -> int -> int -> float array
(** Float-plane analogue of {!words_sub}. *)

val words_to_le : int array -> string
(** 8 bytes per word, little-endian, sign-extended to 64 bits — the
    format-4 on-disk encoding of an int plane. *)

val floats_to_le : float array -> string
(** 8 bytes per element, IEEE-754 bit pattern, little-endian. *)
