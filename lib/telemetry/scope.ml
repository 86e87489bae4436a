type t = {
  registry : Registry.t;
  prefix : string;
}

let v registry prefix =
  if prefix = "" then invalid_arg "Scope.v: empty prefix";
  { registry; prefix }

let name t leaf = t.prefix ^ "." ^ leaf
let counter t leaf = Registry.counter t.registry (name t leaf)
let gauge t leaf = Registry.gauge t.registry (name t leaf)
let histogram t leaf = Registry.histogram t.registry (name t leaf)
