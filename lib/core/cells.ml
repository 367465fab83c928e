(** A column of non-negative integers stored at the narrowest cell width
    (1, 2 or 4 bytes, little-endian) that holds every value.

    A column is a view on a string: either one of its own (built by
    {!of_array}) or a range of a loaded table bundle, which the comb
    dispatcher then probes in place, with no per-cell decode.  Both kinds
    read the same way, and {!add} writes either kind as the same bytes. *)

type t = { buf : string; pos : int; width : int; len : int }

let length c = c.len

(** Bytes the cells take, headers excluded. *)
let byte_size c = c.len * c.width

let max_value = 0xFFFF_FFFF

let width_for max =
  if max < 0x100 then 1 else if max < 0x10000 then 2 else 4

let[@inline] get c i =
  if i < 0 || i >= c.len then invalid_arg "Cells.get";
  match c.width with
  | 1 -> String.get_uint8 c.buf (c.pos + i)
  | 2 -> String.get_uint16_le c.buf (c.pos + (2 * i))
  | _ ->
      (* unsigned, as the narrower widths are: no cell reads negative *)
      Int32.to_int (String.get_int32_le c.buf (c.pos + (4 * i))) land 0xFFFF_FFFF

(* the largest value, refusing any a cell cannot hold *)
let max_of (a : int array) =
  let m = ref 0 in
  for i = 0 to Array.length a - 1 do
    let v = a.(i) in
    if v < 0 || v > max_value then
      invalid_arg (Printf.sprintf "Cells: value %d out of range" v);
    if v > !m then m := v
  done;
  !m

(* The cells of [a], in bytes sized up front and written by monomorphic
   loops over [int array]. *)
let of_array (a : int array) : t =
  let width = width_for (max_of a) in
  let len = Array.length a in
  let b = Bytes.create (len * width) in
  (match width with
  | 1 ->
      for i = 0 to len - 1 do
        Bytes.set_uint8 b i a.(i)
      done
  | 2 ->
      for i = 0 to len - 1 do
        Bytes.set_uint16_le b (2 * i) a.(i)
      done
  | _ ->
      for i = 0 to len - 1 do
        Bytes.set_int32_le b (4 * i) (Int32.of_int a.(i))
      done);
  { buf = Bytes.unsafe_to_string b; pos = 0; width; len }

let to_array c : int array =
  let a = Array.make c.len 0 in
  for i = 0 to c.len - 1 do
    a.(i) <- get c i
  done;
  a

(** Serialized form: one width byte, a 4-byte little-endian count, then
    the cells. *)
let header_bytes = 5

let add b c =
  Buffer.add_uint8 b c.width;
  Buffer.add_int32_le b (Int32.of_int c.len);
  Buffer.add_substring b c.buf c.pos (byte_size c)

(** [view buf pos ~limit] reads the column whose header starts at [pos];
    returns it and the position after its cells, or [None] when the
    header is malformed or the cells run past [limit]. *)
let view buf pos ~limit : (t * int) option =
  if pos < 0 || pos + header_bytes > limit then None
  else
    let width = String.get_uint8 buf pos in
    let len = Int32.to_int (String.get_int32_le buf (pos + 1)) in
    let start = pos + header_bytes in
    if
      (width <> 1 && width <> 2 && width <> 4)
      || len < 0
      || len > (limit - start) / width
    then None
    else Some ({ buf; pos = start; width; len }, start + (len * width))
