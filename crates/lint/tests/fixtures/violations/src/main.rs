fn main() {
    let _ = lint_fixture::swallow::fallible();
}
