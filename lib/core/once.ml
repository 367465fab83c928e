(** A value computed the first time it is used, safe when that first use
    happens on several domains at once.

    OCaml 5.1's [Lazy.force] raises [CamlinternalLazy.Undefined] when two
    domains force the same suspension concurrently, and one table bundle
    is shared by every domain of a pool.  Here a racing domain computes
    the value too, and the first to publish wins through
    [Atomic.compare_and_set]; every caller then returns the published
    value.  The computation must therefore be pure (a decode of bytes
    that never change) and must not raise. *)

type 'a state = Ready of 'a | Pending of (unit -> 'a)
type 'a t = 'a state Atomic.t

let of_value v : 'a t = Atomic.make (Ready v)
let make f : 'a t = Atomic.make (Pending f)

let force (c : 'a t) : 'a =
  match Atomic.get c with
  | Ready v -> v
  | Pending f as seen -> (
      let v = f () in
      if Atomic.compare_and_set c seen (Ready v) then v
      else match Atomic.get c with Ready w -> w | Pending _ -> v)

let is_ready (c : 'a t) =
  match Atomic.get c with Ready _ -> true | Pending _ -> false
