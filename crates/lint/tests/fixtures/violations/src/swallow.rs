/// A Result-returning function the fixtures below discard.
pub fn fallible() -> Result<(), String> {
    Err("fixture".to_string())
}

pub fn drops_via_let() {
    let _ = fallible();
}

pub fn drops_via_ok() {
    fallible().ok();
}

pub fn waived_drop() {
    let _ = fallible(); // lint:allow(swallowed-result): fixture demonstrates an honored waiver
}
