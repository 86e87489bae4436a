(* Test data by its place next to the test binaries. dune copies the
   [deps] of [test/dune] into the build directory and runs the tests
   there; resolving from the binary rather than the working directory
   lets a test started from anywhere (say [dune exec
   test/test_durable.exe] from the repository root) read the same
   files. *)
let path rel = Filename.concat (Filename.dirname Sys.executable_name) rel
