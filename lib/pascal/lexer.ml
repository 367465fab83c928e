(** Hand-written lexer for mini-Pascal. *)

type token =
  | Ident of string
  | Int of int
  | Real of float
  | Char of char
  | Kw of string (* lower-cased keyword *)
  | Sym of string (* := <= >= <> .. and single-char symbols *)
  | Eof

let pp_token ppf = function
  | Ident s -> Fmt.pf ppf "identifier %s" s
  | Int n -> Fmt.pf ppf "integer %d" n
  | Real f -> Fmt.pf ppf "real %g" f
  | Char c -> Fmt.pf ppf "char %C" c
  | Kw k -> Fmt.pf ppf "keyword %s" k
  | Sym s -> Fmt.pf ppf "%S" s
  | Eof -> Fmt.string ppf "end of file"

(* One string [match]: the compiler turns it into a few word compares,
   where [List.mem] over a keyword list made a polymorphic [compare]
   call per keyword. *)
let is_keyword = function
  | "program" | "var" | "begin" | "end" | "if" | "then" | "else" | "while"
  | "do" | "repeat" | "until" | "for" | "to" | "downto" | "case" | "of"
  | "otherwise" | "procedure" | "array" | "set" | "integer" | "boolean"
  | "char" | "real" | "div" | "mod" | "and" | "or" | "not" | "true"
  | "false" | "in" ->
      true
  | _ -> false

type error = { pos : int; line : int; msg : string }

let pp_error ppf e = Fmt.pf ppf "pascal:%d: %s" e.line e.msg

exception Fail of error

(** Tokenize; returns tokens paired with their line numbers. *)
let tokenize (src : string) : ((token * int) list, error) result =
  let n = String.length src in
  let line = ref 1 in
  let out = ref [] in
  let fail pos msg = raise (Fail { pos; line = !line; msg }) in
  let is_digit c = c >= '0' && c <= '9' in
  let is_alpha c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  in
  let i = ref 0 in
  (try
     while !i < n do
       let c = src.[!i] in
       if c = '\n' then begin incr line; incr i end
       else if c = ' ' || c = '\t' || c = '\r' then incr i
       else if c = '{' then begin
         (* comment *)
         while !i < n && src.[!i] <> '}' do
           if src.[!i] = '\n' then incr line;
           incr i
         done;
         if !i >= n then fail !i "unterminated comment";
         incr i
       end
       else if is_alpha c then begin
         let start = !i in
         while !i < n && (is_alpha src.[!i] || is_digit src.[!i]) do incr i done;
         (* lower-cased straight into the word's one string *)
         let word = Bytes.create (!i - start) in
         for k = 0 to !i - start - 1 do
           Bytes.unsafe_set word k
             (Char.lowercase_ascii (String.unsafe_get src (start + k)))
         done;
         let word = Bytes.unsafe_to_string word in
         out := ((if is_keyword word then Kw word else Ident word), !line) :: !out
       end
       else if is_digit c then begin
         let start = !i in
         while !i < n && is_digit src.[!i] do incr i done;
         (* a real requires digit '.' digit — but '..' is a range *)
         if
           !i + 1 < n
           && src.[!i] = '.'
           && is_digit src.[!i + 1]
         then begin
           incr i;
           while !i < n && is_digit src.[!i] do incr i done;
           let text = String.sub src start (!i - start) in
           match float_of_string_opt text with
           | Some f -> out := (Real f, !line) :: !out
           | None -> fail start ("malformed real " ^ text)
         end
         else begin
           (* the digits' value, or -1 past [max_int], where
              [int_of_string] fails too *)
           let v = ref 0 in
           for k = start to !i - 1 do
             let d = Char.code src.[k] - Char.code '0' in
             v := if !v < 0 || !v > (max_int - d) / 10 then -1 else (!v * 10) + d
           done;
           if !v < 0 then
             fail start ("malformed integer " ^ String.sub src start (!i - start));
           out := (Int !v, !line) :: !out
         end
       end
       else if c = '\'' then begin
         if !i + 2 < n && src.[!i + 2] = '\'' then begin
           out := (Char src.[!i + 1], !line) :: !out;
           i := !i + 3
         end
         else fail !i "malformed character literal"
       end
       else begin
         (* symbols are read by character, and every [Sym] token is a
            constant *)
         let next = if !i + 1 < n then src.[!i + 1] else ' ' in
         let tok, len =
           match (c, next) with
           | ':', '=' -> (Sym ":=", 2)
           | '<', '=' -> (Sym "<=", 2)
           | '>', '=' -> (Sym ">=", 2)
           | '<', '>' -> (Sym "<>", 2)
           | '.', '.' -> (Sym "..", 2)
           | '+', _ -> (Sym "+", 1)
           | '-', _ -> (Sym "-", 1)
           | '*', _ -> (Sym "*", 1)
           | '/', _ -> (Sym "/", 1)
           | '(', _ -> (Sym "(", 1)
           | ')', _ -> (Sym ")", 1)
           | '[', _ -> (Sym "[", 1)
           | ']', _ -> (Sym "]", 1)
           | ';', _ -> (Sym ";", 1)
           | ':', _ -> (Sym ":", 1)
           | ',', _ -> (Sym ",", 1)
           | '.', _ -> (Sym ".", 1)
           | '=', _ -> (Sym "=", 1)
           | '<', _ -> (Sym "<", 1)
           | '>', _ -> (Sym ">", 1)
           | _ -> fail !i (Fmt.str "unexpected character %C" c)
         in
         out := (tok, !line) :: !out;
         i := !i + len
       end
     done;
     out := (Eof, !line) :: !out;
     Ok (List.rev !out)
   with Fail e -> Error e)
