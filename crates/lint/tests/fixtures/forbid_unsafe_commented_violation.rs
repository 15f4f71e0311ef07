//! A crate root that only names the pledge: this doc line quotes
//! #![forbid(unsafe_code)] without carrying it.

// #![forbid(unsafe_code)]

pub const PLEDGE: &str = "
#![forbid(unsafe_code)]
";
