(** Thread-safe LRU cache for the serving layer. Every operation takes
    an internal mutex, so one cache may be shared by all the domains
    of the TCP server; the critical sections are a hashtable probe and
    a couple of pointer swaps, far below the cost of the query either
    side of them.

    Keys are canonicalized requests ({!Protocol.canonical_key}) and
    values are id-free responses — encoded bytes in {!Serve}, typed
    results in {!Router} — but the cache itself is generic. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** An empty cache holding at most [capacity] entries (at least 1);
    inserting past capacity evicts the least recently used entry. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit refreshes the entry to most-recently-used. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite, making the entry most-recently-used. *)

val length : ('k, 'v) t -> int

val stats : ('k, 'v) t -> int * int
(** [(hits, misses)] since creation — the serve [stats] op reports
    these. *)
