//! JSM modules: the unit of UDF deployment.
//!
//! A module is the analogue of a Java `.class` file: a named bundle of
//! typed functions plus a table of **host imports** (the "native methods"
//! through which a UDF calls back into the database server, §4.2). Modules
//! have a stable binary encoding so they can be compiled at a client,
//! shipped over the wire, verified at the server, and executed there —
//! the portability loop of §6.4.
//!
//! [`VerifiedModule`] can only be constructed by the verifier (or by
//! `Module::verify`), so every execution path is forced through
//! verification — the "only safe code is loaded" property of §6.1.

use std::io::Read;

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::stream::{
    read_str, read_u16, read_u32, read_u8, write_str, write_u16, write_u32, write_u8,
};

use crate::isa::{Insn, VType};
use crate::tier::CompiledModule;
use crate::verifier::Cfg;

/// Magic bytes opening a serialised module ("JSM" + format version 1).
pub const MODULE_MAGIC: [u8; 4] = *b"JSM1";

/// A function signature: parameter types and optional return type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncSig {
    pub params: Vec<VType>,
    pub ret: Option<VType>,
}

impl FuncSig {
    pub fn new(params: Vec<VType>, ret: Option<VType>) -> Self {
        FuncSig { params, ret }
    }
}

/// A host function the module wants to import ("native method").
/// Registration grants or refuses each import by name; the security
/// manager additionally gates every call at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostImport {
    pub name: String,
    pub sig: FuncSig,
}

/// One function: signature, extra local slots, and code.
///
/// Locals are indexed `0..params.len()` for parameters followed by
/// `extra_locals` scratch slots with declared types (the verifier needs
/// declared types to give locals a fixed type for the whole function,
/// exactly like Java's local variable typing).
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    pub name: String,
    pub sig: FuncSig,
    pub local_types: Vec<VType>,
    pub code: Vec<Insn>,
}

impl Function {
    /// Total number of local slots (params + extras).
    pub fn total_locals(&self) -> usize {
        self.sig.params.len() + self.local_types.len()
    }

    /// Type of local slot `i`.
    pub fn local_type(&self, i: usize) -> Option<VType> {
        if i < self.sig.params.len() {
            Some(self.sig.params[i])
        } else {
            self.local_types.get(i - self.sig.params.len()).copied()
        }
    }
}

/// An unverified module, as decoded from bytes or built by a compiler.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    pub name: String,
    pub imports: Vec<HostImport>,
    pub functions: Vec<Function>,
}

impl Module {
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            imports: Vec::new(),
            functions: Vec::new(),
        }
    }

    /// Index of the function with the given name.
    pub fn find_function(&self, name: &str) -> Option<u32> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u32)
    }

    /// The signature a `call` or `host_call` invokes, if it names one.
    pub(crate) fn callee_sig(&self, insn: Insn) -> Option<&FuncSig> {
        match insn {
            Insn::Call(i) => self.functions.get(i as usize).map(|f| &f.sig),
            Insn::HostCall(i) => self.imports.get(i as usize).map(|h| &h.sig),
            _ => None,
        }
    }

    /// Run the verifier, consuming this module into a [`VerifiedModule`].
    pub fn verify(self) -> Result<VerifiedModule> {
        crate::verifier::verify(self)
    }

    // ----- binary encoding ------------------------------------------------

    /// Serialise to the stable binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MODULE_MAGIC);
        write_str(&mut out, &self.name).expect("vec write");
        write_u16(&mut out, self.imports.len() as u16).expect("vec write");
        for imp in &self.imports {
            write_str(&mut out, &imp.name).expect("vec write");
            write_sig(&mut out, &imp.sig);
        }
        write_u32(&mut out, self.functions.len() as u32).expect("vec write");
        for f in &self.functions {
            write_str(&mut out, &f.name).expect("vec write");
            write_sig(&mut out, &f.sig);
            write_u16(&mut out, f.local_types.len() as u16).expect("vec write");
            for t in &f.local_types {
                write_u8(&mut out, t.tag()).expect("vec write");
            }
            write_u32(&mut out, f.code.len() as u32).expect("vec write");
            for insn in &f.code {
                insn.encode(&mut out);
            }
        }
        out
    }

    /// Decode from the binary form. Structural validation only — run the
    /// verifier before executing.
    pub fn from_bytes(data: &[u8]) -> Result<Module> {
        let mut r = data;
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != MODULE_MAGIC {
            return Err(JaguarError::Verification(format!(
                "bad module magic {magic:02x?}"
            )));
        }
        let name = read_str(&mut r)?;
        // All counts below come from the (untrusted) module blob: grow the
        // vectors as entries actually decode, so a tiny blob declaring huge
        // counts fails on EOF instead of reserving memory up front.
        let n_imports = read_u16(&mut r)?;
        let mut imports = Vec::new();
        for _ in 0..n_imports {
            let iname = read_str(&mut r)?;
            let sig = read_sig(&mut r)?;
            imports.push(HostImport { name: iname, sig });
        }
        let n_funcs = read_u32(&mut r)?;
        if n_funcs > 100_000 {
            return Err(JaguarError::Verification(format!(
                "implausible function count {n_funcs}"
            )));
        }
        let mut functions = Vec::new();
        for _ in 0..n_funcs {
            let fname = read_str(&mut r)?;
            let sig = read_sig(&mut r)?;
            let n_locals = read_u16(&mut r)?;
            let mut local_types = Vec::new();
            for _ in 0..n_locals {
                local_types.push(VType::from_tag(read_u8(&mut r)?)?);
            }
            let n_code = read_u32(&mut r)?;
            if n_code > 10_000_000 {
                return Err(JaguarError::Verification(format!(
                    "implausible code length {n_code}"
                )));
            }
            let mut code = Vec::new();
            for _ in 0..n_code {
                code.push(Insn::decode(&mut r)?);
            }
            functions.push(Function {
                name: fname,
                sig,
                local_types,
                code,
            });
        }
        if !r.is_empty() {
            return Err(JaguarError::Verification(format!(
                "{} trailing bytes after module",
                r.len()
            )));
        }
        Ok(Module {
            name,
            imports,
            functions,
        })
    }
}

fn write_sig(out: &mut Vec<u8>, sig: &FuncSig) {
    write_u8(out, sig.params.len() as u8).expect("vec write");
    for p in &sig.params {
        write_u8(out, p.tag()).expect("vec write");
    }
    match sig.ret {
        None => write_u8(out, 0).expect("vec write"),
        Some(t) => write_u8(out, t.tag()).expect("vec write"),
    }
}

fn read_sig(r: &mut impl Read) -> Result<FuncSig> {
    let n = read_u8(r)?;
    let mut params = Vec::with_capacity(n as usize);
    for _ in 0..n {
        params.push(VType::from_tag(read_u8(r)?)?);
    }
    let ret = match read_u8(r)? {
        0 => None,
        t => Some(VType::from_tag(t)?),
    };
    Ok(FuncSig { params, ret })
}

/// A module that has passed bytecode verification, with the control flow
/// the verifier proved and the compiled form built from it. The
/// interpreter only accepts this type; there is deliberately no public
/// constructor.
#[derive(Debug)]
pub struct VerifiedModule {
    inner: Module,
    cfgs: Vec<Cfg>,
    compiled: CompiledModule,
}

impl VerifiedModule {
    /// Crate-internal: only the verifier creates these.
    pub(crate) fn new_unchecked(
        inner: Module,
        cfgs: Vec<Cfg>,
        compiled: CompiledModule,
    ) -> VerifiedModule {
        VerifiedModule {
            inner,
            cfgs,
            compiled,
        }
    }

    /// The verified control flow of function `fidx`.
    pub fn cfg(&self, fidx: u32) -> &Cfg {
        &self.cfgs[fidx as usize]
    }

    pub fn module(&self) -> &Module {
        &self.inner
    }

    pub(crate) fn compiled(&self) -> &CompiledModule {
        &self.compiled
    }

    pub fn name(&self) -> &str {
        &self.inner.name
    }

    pub fn functions(&self) -> &[Function] {
        &self.inner.functions
    }

    pub fn imports(&self) -> &[HostImport] {
        &self.inner.imports
    }

    pub fn find_function(&self, name: &str) -> Option<u32> {
        self.inner.find_function(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_module() -> Module {
        Module {
            name: "udfs.investval".into(),
            imports: vec![HostImport {
                name: "callback".into(),
                sig: FuncSig::new(vec![VType::I64], Some(VType::I64)),
            }],
            functions: vec![
                Function {
                    name: "main".into(),
                    sig: FuncSig::new(vec![VType::Bytes, VType::I64], Some(VType::I64)),
                    local_types: vec![VType::I64, VType::F64],
                    code: vec![Insn::ConstI(0), Insn::Ret],
                },
                Function {
                    name: "helper".into(),
                    sig: FuncSig::new(vec![], None),
                    local_types: vec![],
                    code: vec![Insn::Ret],
                },
            ],
        }
    }

    #[test]
    fn binary_roundtrip() {
        let m = sample_module();
        let bytes = m.to_bytes();
        let back = Module::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_module().to_bytes();
        bytes[0] = b'X';
        assert!(Module::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample_module().to_bytes();
        for cut in [4, 10, bytes.len() - 1] {
            assert!(Module::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample_module().to_bytes();
        bytes.push(0);
        assert!(Module::from_bytes(&bytes).is_err());
    }

    #[test]
    fn find_function() {
        let m = sample_module();
        assert_eq!(m.find_function("main"), Some(0));
        assert_eq!(m.find_function("helper"), Some(1));
        assert_eq!(m.find_function("absent"), None);
    }

    #[test]
    fn local_typing() {
        let m = sample_module();
        let f = &m.functions[0];
        assert_eq!(f.total_locals(), 4);
        assert_eq!(f.local_type(0), Some(VType::Bytes)); // param
        assert_eq!(f.local_type(1), Some(VType::I64)); // param
        assert_eq!(f.local_type(2), Some(VType::I64)); // extra
        assert_eq!(f.local_type(3), Some(VType::F64)); // extra
        assert_eq!(f.local_type(4), None);
    }
}
