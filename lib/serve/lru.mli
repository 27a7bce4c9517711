(** Bounded least-recently-used cache of marshalled response payloads.

    {b Not thread-safe}: the daemon serialises all access under its
    state mutex, because cache lookups must be atomic with its
    single-flight bookkeeping. Eviction is an O(capacity) minimum-stamp
    scan — deliberate, see the implementation note. *)

type t

(** [create ~cap] — a cache holding at most [cap] entries. [cap = 0]
    disables caching ({!add} becomes a no-op). Raises
    [Invalid_argument] on a negative [cap]. *)
val create : cap:int -> t

(** [find t key] — the cached payload, promoting the entry to
    most-recently-used. (Hit/miss accounting lives in
    {!Metrics}, at request granularity.) *)
val find : t -> string -> string option

(** [add t key value] — insert (or refresh) an entry, evicting the
    least-recently-used one when full. *)
val add : t -> string -> string -> unit

val length : t -> int
[@@lint.allow "test-only-export" "test seam: cache occupancy the eviction tests read"]

(** Entries displaced by a full-capacity {!add} since creation
    (refreshes of an existing key do not count). *)
val evictions : t -> int
