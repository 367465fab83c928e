(* Starts a program with only a few descriptors left below select's
   limit, for test_serve's "a descriptor select cannot watch" case:
     fd_filler.exe FREE PROG ARG...
   opens /dev/null until the next descriptor is one [select] refuses
   (FD_SETSIZE, 1024) or none is left, closes the last FREE of them,
   and execs PROG with the rest still open. *)

let selectable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false

(* newest first; each open takes the lowest free descriptor *)
let rec fill acc =
  match Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 with
  | fd when selectable fd -> fill (fd :: acc)
  | fd ->
      Unix.close fd;
      acc
  | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> acc

let () =
  match Array.to_list Sys.argv with
  | _ :: free :: prog :: args ->
      List.iteri
        (fun i fd -> if i < int_of_string free then Unix.close fd)
        (fill []);
      Unix.execv prog (Array.of_list (prog :: args))
  | _ ->
      prerr_endline "usage: fd_filler FREE PROG [ARG...]";
      exit 2
