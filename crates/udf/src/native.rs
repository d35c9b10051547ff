//! Native UDFs run in process: Design 1, and Design 2 inside its worker.
//!
//! "Clearly, Design 1 will have the best performance of all the options
//! since it essentially corresponds to hard-coding the UDF into the
//! server. However, the obvious concern is that system security might be
//! compromised." — the closure runs with the full authority of the server
//! process; nothing stops it from panicking, allocating unboundedly, or
//! scribbling over shared state. That is the point of the baseline.

use std::sync::Arc;

use jaguar_common::error::Result;
use jaguar_common::Value;
use jaguar_ipc::proto::CallbackHandler;

use crate::api::{ScalarUdf, UdfSignature};

/// The function type for a trusted native UDF.
pub type NativeFn = dyn Fn(&[Value], &mut dyn CallbackHandler) -> Result<Value> + Send + Sync;

/// A trusted, in-process UDF (the paper's "C++" baseline).
///
/// The definition is shared (`Arc`); instantiation per query is free.
#[derive(Clone)]
pub struct NativeUdf {
    name: String,
    signature: UdfSignature,
    f: Arc<NativeFn>,
}

impl NativeUdf {
    pub fn new(
        name: impl Into<String>,
        signature: UdfSignature,
        f: impl Fn(&[Value], &mut dyn CallbackHandler) -> Result<Value> + Send + Sync + 'static,
    ) -> NativeUdf {
        NativeUdf::shared(name.into(), signature, Arc::new(f))
    }

    /// A native UDF over a function other instances share.
    pub(crate) fn shared(name: String, signature: UdfSignature, f: Arc<NativeFn>) -> NativeUdf {
        NativeUdf { name, signature, f }
    }
}

impl ScalarUdf for NativeUdf {
    fn name(&self) -> &str {
        &self.name
    }

    fn signature(&self) -> &UdfSignature {
        &self.signature
    }

    fn invoke(&mut self, args: &[Value], callbacks: &mut dyn CallbackHandler) -> Result<Value> {
        self.signature.check_args(&self.name, args)?;
        (self.f)(args, callbacks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaguar_common::DataType;
    use jaguar_ipc::proto::NoCallbacks;

    #[test]
    fn direct_invocation() {
        let mut udf = NativeUdf::new(
            "double",
            UdfSignature::new(vec![DataType::Int], DataType::Int),
            |args, _| Ok(Value::Int(args[0].as_int()? * 2)),
        );
        assert_eq!(
            udf.invoke(&[Value::Int(21)], &mut NoCallbacks).unwrap(),
            Value::Int(42)
        );
    }

    #[test]
    fn signature_enforced_before_dispatch() {
        let mut udf = NativeUdf::new(
            "one_arg",
            UdfSignature::new(vec![DataType::Int], DataType::Int),
            |_, _| panic!("must not be reached on bad args"),
        );
        assert!(udf.invoke(&[], &mut NoCallbacks).is_err());
        assert!(udf
            .invoke(&[Value::Str("x".into())], &mut NoCallbacks)
            .is_err());
    }

    #[test]
    fn callbacks_reach_handler() {
        struct Plus100;
        impl CallbackHandler for Plus100 {
            fn callback(&mut self, _name: &str, args: &[Value]) -> Result<Value> {
                Ok(Value::Int(args[0].as_int()? + 100))
            }
        }
        let mut udf = NativeUdf::new(
            "cb",
            UdfSignature::new(vec![DataType::Int], DataType::Int),
            |args, cb| cb.callback("lookup", args),
        );
        assert_eq!(
            udf.invoke(&[Value::Int(1)], &mut Plus100).unwrap(),
            Value::Int(101)
        );
    }
}
