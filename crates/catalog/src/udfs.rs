//! The UDF registry half of the catalog.
//!
//! A registered UDF carries its execution design ([`jaguar_udf::UdfImpl`]),
//! so the same SQL `InvestVal(history)` can run as trusted native code, in
//! an isolated process, or under the sandboxed VM — whichever design the
//! registration chose. This is the knob the paper's experiments turn.
//!
//! The registry holds definitions only. A UDF's failure costs the
//! statement it happened in and is not remembered here: the next
//! statement that calls the UDF instantiates it afresh.

use std::collections::HashMap;

use jaguar_common::error::{JaguarError, Result};
use jaguar_udf::UdfDef;
use parking_lot::RwLock;

/// Registered UDFs, keyed case-insensitively by SQL name.
#[derive(Default)]
pub struct UdfCatalog {
    udfs: RwLock<HashMap<String, UdfDef>>,
}

impl UdfCatalog {
    pub fn new() -> UdfCatalog {
        UdfCatalog::default()
    }

    /// Register a UDF. Re-registering a name replaces the definition —
    /// the client-side develop/test/migrate loop (§6.4) re-uploads freely.
    pub fn register(&self, def: UdfDef) {
        let key = def.name.to_ascii_lowercase();
        self.udfs.write().insert(key, def);
    }

    /// Resolve a UDF by SQL name.
    pub fn get(&self, name: &str) -> Result<UdfDef> {
        self.udfs
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| JaguarError::Catalog(format!("unknown function '{name}'")))
    }

    /// Remove a UDF.
    pub fn unregister(&self, name: &str) -> Result<()> {
        self.udfs
            .write()
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| JaguarError::Catalog(format!("unknown function '{name}'")))
    }

    /// Sorted names of all registered UDFs.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<_> = self.udfs.read().keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaguar_common::{DataType, Value};
    use jaguar_udf::{UdfImpl, UdfSignature, Volatility};

    fn def(name: &str) -> UdfDef {
        UdfDef::new(
            name,
            UdfSignature::new(vec![], DataType::Int),
            UdfImpl::closure(|_, _| Ok(Value::Int(1))),
        )
    }

    #[test]
    fn register_lookup_unregister() {
        let cat = UdfCatalog::new();
        cat.register(def("InvestVal"));
        assert!(cat.get("investval").is_ok(), "case-insensitive");
        assert_eq!(cat.names(), vec!["investval".to_string()]);
        cat.unregister("INVESTVAL").unwrap();
        assert!(cat.get("InvestVal").is_err());
        assert!(cat.unregister("InvestVal").is_err());
    }

    #[test]
    fn reregistration_replaces() {
        let cat = UdfCatalog::new();
        cat.register(def("f"));
        cat.register(def("F"));
        assert_eq!(cat.names().len(), 1);
    }

    #[test]
    fn reregistration_installs_the_new_definition() {
        let cat = UdfCatalog::new();
        cat.register(def("f"));
        assert_eq!(cat.get("f").unwrap().volatility, Volatility::Volatile);
        cat.register(def("F").with_volatility(Volatility::Immutable));
        assert_eq!(cat.get("f").unwrap().volatility, Volatility::Immutable);
    }
}
