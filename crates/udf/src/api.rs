//! The UDF invocation interface.

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::{DataType, Value};
use jaguar_ipc::proto::CallbackHandler;

use crate::batch::{BatchError, BatchResult, ValueBatch};

/// The SQL-level signature of a scalar UDF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdfSignature {
    pub params: Vec<DataType>,
    pub ret: DataType,
}

impl UdfSignature {
    pub fn new(params: Vec<DataType>, ret: DataType) -> UdfSignature {
        UdfSignature { params, ret }
    }

    /// Validate an argument tuple against this signature (NULLs conform).
    pub fn check_args(&self, name: &str, args: &[Value]) -> Result<()> {
        self.check_types(name, args.len(), |a| args[a].data_type())
    }

    /// [`UdfSignature::check_args`] on arguments of types `type_of(0..arity)`
    /// (`None` for NULL), wherever the caller holds them: a row of a
    /// batch's columns, or of a worker's batch frame.
    pub fn check_types(
        &self,
        name: &str,
        arity: usize,
        type_of: impl Fn(usize) -> Option<DataType>,
    ) -> Result<()> {
        if arity != self.params.len() {
            return Err(JaguarError::Udf(format!(
                "udf '{name}' expects {} arguments, got {arity}",
                self.params.len(),
            )));
        }
        for (i, p) in self.params.iter().enumerate() {
            if let Some(t) = type_of(i).filter(|t| t != p) {
                return Err(JaguarError::Udf(format!(
                    "udf '{name}' argument {}: expected {}, got {}",
                    i + 1,
                    p.sql_name(),
                    t.sql_name()
                )));
            }
        }
        Ok(())
    }
}

/// Cumulative sandbox resource consumption of one UDF instance — the
/// per-UDF accounting §6.2 of the paper calls essential ("the JVM does not
/// maintain any information on the memory usage of individual UDFs").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdfResourceUsage {
    /// VM instructions executed across all invocations.
    pub instructions: u64,
    /// Bytes allocated in VM arenas across all invocations.
    pub bytes_allocated: u64,
    /// Host callbacks performed.
    pub host_calls: u64,
}

/// An instantiated scalar UDF, ready to be applied tuple-by-tuple.
///
/// Instances are per-query (see [`crate::def::UdfDef::instantiate`]):
/// `invoke` takes `&mut self` because isolated backends own a worker
/// process whose socket is inherently exclusive.
pub trait ScalarUdf: Send {
    fn name(&self) -> &str;

    fn signature(&self) -> &UdfSignature;

    /// Apply the UDF to one argument tuple. `callbacks` answers any
    /// requests the UDF makes back to the server (§4.2).
    fn invoke(&mut self, args: &[Value], callbacks: &mut dyn CallbackHandler) -> Result<Value>;

    /// Apply the UDF to every row of a batch, paying the trust-boundary
    /// crossing once instead of once per tuple.
    ///
    /// The contract (see [`crate::batch`]): row `i` of the reply must equal a
    /// per-tuple `invoke` on row `i`; on failure at row `k`, rows `0..k`
    /// have fully taken effect and the reported error is byte-identical to
    /// the per-tuple one. The default implementation is the per-tuple loop
    /// itself, so backends without a vectorized entry point keep working
    /// unchanged.
    fn invoke_batch(
        &mut self,
        batch: &ValueBatch,
        callbacks: &mut dyn CallbackHandler,
    ) -> BatchResult {
        let mut out = Vec::with_capacity(batch.len());
        let mut args = Vec::with_capacity(batch.arity());
        for i in 0..batch.len() {
            batch.read_row(i, &mut args);
            match self.invoke(&args, callbacks) {
                Ok(v) => out.push(v),
                Err(e) => return Err(BatchError::new(i, e)),
            }
        }
        Ok(out)
    }

    /// Cumulative sandbox resource consumption, for designs that meter it
    /// (the VM designs do; trusted native code cannot be metered — that is
    /// Design 1's security trade-off). Default: not metered.
    fn consumed(&self) -> Option<UdfResourceUsage> {
        None
    }

    /// Attach the statement's lifecycle token. Backends that can poll it
    /// do (the in-process VM checks every K instructions; pooled workers
    /// bound their invocation deadline by the remaining statement
    /// budget). Default: ignored — trusted native code cannot be
    /// interrupted, the same trade-off that makes it unmeterable.
    fn attach_cancel(&mut self, _token: jaguar_common::cancel::CancelToken) {}

    /// Per-query teardown (e.g. shutting down a worker process). Default:
    /// nothing.
    fn finish(self: Box<Self>) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaguar_common::ByteArray;

    #[test]
    fn signature_checks_arity_and_types() {
        let sig = UdfSignature::new(vec![DataType::Bytes, DataType::Int], DataType::Int);
        sig.check_args("f", &[Value::Bytes(ByteArray::zeroed(1)), Value::Int(0)])
            .unwrap();
        sig.check_args("f", &[Value::Null, Value::Null]).unwrap();
        assert!(sig.check_args("f", &[Value::Int(0)]).is_err());
        assert!(sig
            .check_args("f", &[Value::Int(0), Value::Int(0)])
            .is_err());
    }
}
