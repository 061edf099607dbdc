#[cfg(test)]
mod tests {
    #[test]
    fn exempt() {
        let _ = crate::swallow::fallible();
        crate::swallow::fallible().ok();
    }
}

pub mod alloc;
pub mod cast;
pub mod locks;
pub mod swallow;
