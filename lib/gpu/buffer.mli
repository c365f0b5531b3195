(** Device-memory buffers.

    A buffer is a flat array of 32-bit-style ints living in simulated
    device memory.  Allocation and deallocation go through
    {!Context}, which tracks the memory budget of the device. *)

type t = { id : int; name : string; len : int; data : int array }
(** [data] is the backing store of [len] ints, or [[||]] for a
    storeless buffer: a {!Context.Timing_only} allocation, which has a
    size but no contents and reads as zeros. *)

val length : t -> int

val bytes : t -> int
(** Size in (simulated 32-bit) bytes: [4 * length]. *)

val stored : t -> bool
(** Whether the buffer has a backing store. *)

val fill : t -> int -> unit
(** Set every element; a no-op on a storeless buffer. *)

val to_array : t -> int array
(** A copy of the contents (zeros for a storeless buffer). *)
