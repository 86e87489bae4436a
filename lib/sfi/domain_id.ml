type t = int

let kernel = 0
let is_kernel t = t = 0

let counter = Atomic.make 0
let fresh () = Atomic.fetch_and_add counter 1 + 1

let equal = Int.equal
