(** Binary min-heaps over an ordered key type.

    The priority queue behind {!Timeline}, the serving loop's event
    clock.  Keys carry the full ordering — a client embeds a sequence
    number in the key to make processing order deterministic among
    simultaneous events. *)

module Make (Ord : sig
  type t

  val compare : t -> t -> int
end) : sig
  type 'a t

  val create : unit -> 'a t

  val length : 'a t -> int

  val is_empty : 'a t -> bool

  val push : 'a t -> Ord.t -> 'a -> unit

  val peek : 'a t -> (Ord.t * 'a) option
  (** Smallest key, without removing it. *)

  val pop : 'a t -> (Ord.t * 'a) option
  (** Remove and return the entry with the smallest key. *)

  val pop_exn : 'a t -> Ord.t * 'a
  (** @raise Invalid_argument on an empty heap. *)

  val clear : 'a t -> unit
end
