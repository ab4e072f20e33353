//! The framework's own service ports, served through SIDL-generated code.
//!
//! `sidl/cca_ports.sidl` declares every port the framework itself
//! provides ([`MonitorPort`], [`DiscoveryPort`]). The build script runs
//! the cca-sidl generator over it, so reflection and dynamic invocation
//! come from the SIDL compiler, as §5 of the paper has it: each port
//! object implements its generated trait, and its dynamic facade is the
//! generated `…Skel` around that object. No dispatch is written by hand.
//!
//! Installing a service port is one path for all of them: deposit
//! [`CCA_PORTS_SIDL`] into the repository if the port type is unknown,
//! add an instance whose component provides the port, and export it on
//! the ORB, so the next `serve_tcp` call puts it on the network.

use crate::framework::Framework;
use cca_core::{CcaError, CcaServices, Component, PortHandle};
use cca_sidl::DynObject;
use std::sync::Arc;

// The generator also emits a client stub per port; the framework serves
// the ports and never calls them through a stub.
#[allow(dead_code)]
mod generated {
    include!(concat!(env!("OUT_DIR"), "/cca_ports_generated.rs"));
}

pub use generated::cca::ports::{DiscoveryPort, DiscoveryPortSkel, MonitorPort, MonitorPortSkel};

/// SIDL source of every framework service port (`sidl/cca_ports.sidl`).
/// Deposited into the repository on the first install so reflective
/// callers can `invoke_checked` against real metadata.
pub const CCA_PORTS_SIDL: &str = include_str!("../../../sidl/cca_ports.sidl");

/// Where one service port lives. Constants only.
#[derive(Clone, Copy)]
pub(crate) struct ServicePort {
    /// Instance name the port's component is added under.
    pub instance: &'static str,
    /// Component class reported for that instance.
    pub class: &'static str,
    /// Provides-port name; the export key is `"{instance}/{port}"`.
    pub port: &'static str,
    /// SIDL type of the port, declared in [`CCA_PORTS_SIDL`].
    pub port_type: &'static str,
}

/// The component providing one service port through its skeleton.
struct ServiceComponent {
    spec: ServicePort,
    servant: Arc<dyn DynObject>,
}

impl Component for ServiceComponent {
    fn component_type(&self) -> &str {
        self.spec.class
    }

    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        services.add_provides_port(
            PortHandle::new(
                self.spec.port,
                self.spec.port_type,
                Arc::clone(&self.servant),
            )
            .with_dynamic(Arc::clone(&self.servant)),
        )
    }
}

impl Framework {
    /// Deposits [`CCA_PORTS_SIDL`] if `spec.port_type` is unknown, adds
    /// the instance providing `servant`, and exports its port.
    pub(crate) fn install_service_port(
        self: &Arc<Self>,
        spec: ServicePort,
        servant: Arc<dyn DynObject>,
    ) -> Result<(), CcaError> {
        let known = self
            .repository()
            .with_catalog(|c| c.reflection().type_info(spec.port_type).is_some());
        if !known {
            self.repository()
                .deposit_sidl(CCA_PORTS_SIDL)
                .map_err(|e| CcaError::Framework(format!("service-port SIDL rejected: {e}")))?;
        }
        self.add_instance(spec.instance, Arc::new(ServiceComponent { spec, servant }))?;
        self.export_port(spec.instance, spec.port)?;
        Ok(())
    }
}
