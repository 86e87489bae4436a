module S = Set.Make (String)

type t = S.t

let public = S.empty
let of_list = S.of_list
let singleton = S.singleton
let secret = S.singleton "secret"
let join = S.union
let leq = S.subset
let equal = S.equal
let is_public = S.is_empty
let cardinal = S.cardinal
let fold = S.fold

let to_string t =
  if S.is_empty t then "public" else "{" ^ String.concat "," (S.elements t) ^ "}"

let pp ppf t = Format.pp_print_string ppf (to_string t)
