//! The remote discovery plane: the repository's search API as a
//! reflective port any framework can dial over the wire.
//!
//! Figure 2's repository is only useful if other frameworks can *search*
//! it — "the functionality necessary to search a framework repository
//! for components" (§4). The discovery port puts exactly that on the
//! network: exact class lookup, trigram fuzzy search with scored paged
//! results (a [`cca_repository::QueryCursor`] rides the wire as an
//! opaque string), and the catalog's scale statistics, all through
//! dynamic invocation over the same `tcp`/`tcp+mux` transports the
//! components themselves use. [`Framework::install_discovery`] takes the
//! same path as [`Framework::install_monitor`]: deposit the service-port
//! SIDL, add the component instance, export the generated skeleton under
//! [`DISCOVERY_EXPORT_KEY`], and the next `serve_tcp` call makes the
//! catalog remotely searchable.

use crate::framework::Framework;
use crate::service::{DiscoveryPort, DiscoveryPortSkel, ServicePort};
use cca_core::CcaError;
use cca_repository::{FuzzyQuery, QueryCursor, QueryPage, Repository};
use cca_sidl::SidlError;
use std::sync::Arc;

/// The SIDL type of the discovery port.
pub const DISCOVERY_PORT_TYPE: &str = "cca.ports.DiscoveryPort";

/// Default instance name [`Framework::install_discovery`] registers under.
pub const DISCOVERY_INSTANCE: &str = "cca-discovery";

/// ORB key the discovery port is exported under —
/// `"{DISCOVERY_INSTANCE}/discovery"`. A remote framework reaches it with
/// `ObjRef::new(DISCOVERY_EXPORT_KEY, transport)`.
pub const DISCOVERY_EXPORT_KEY: &str = "cca-discovery/discovery";

const SERVICE: ServicePort = ServicePort {
    instance: DISCOVERY_INSTANCE,
    class: "cca.DiscoveryComponent",
    port: "discovery",
    port_type: DISCOVERY_PORT_TYPE,
};

fn js(s: &str) -> String {
    cca_obs::trace::escape_json(s)
}

fn page_json(page: &QueryPage) -> String {
    let hits: Vec<String> = page
        .hits
        .iter()
        .map(|h| format!("{{\"class\":\"{}\",\"score\":{}}}", js(&h.class), h.score))
        .collect();
    let cursor = match &page.next {
        Some(c) => format!("\"{}\"", js(&c.encode())),
        None => "null".to_string(),
    };
    format!(
        "{{\"hits\":[{}],\"matched\":{},\"cursor\":{}}}",
        hits.join(","),
        page.matched,
        cursor
    )
}

/// The discovery port object. Holds the repository directly (not the
/// framework): the catalog outliving its framework is fine, and lookup
/// traffic never touches instance state. In-process callers use its
/// [`DiscoveryPort`] methods; the framework serves the same object
/// through [`DiscoveryPortSkel`].
#[derive(Clone)]
pub struct Discovery {
    repository: Arc<Repository>,
}

impl Discovery {
    /// Creates a discovery port over `repository`.
    pub fn new(repository: Arc<Repository>) -> Self {
        Discovery { repository }
    }
}

impl DiscoveryPort for Discovery {
    fn componentCount(&self) -> Result<i64, SidlError> {
        Ok(self.repository.len() as i64)
    }

    fn lookupJson(&self, class: &str) -> Result<String, SidlError> {
        Ok(match self.repository.entry(class) {
            Ok(e) => {
                let ports = |specs: &[cca_repository::PortSpec]| {
                    specs
                        .iter()
                        .map(|p| {
                            format!(
                                "{{\"name\":\"{}\",\"type\":\"{}\"}}",
                                js(&p.name),
                                js(&p.port_type)
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(",")
                };
                format!(
                    "{{\"found\":true,\"class\":\"{}\",\"description\":\"{}\",\
                     \"provides\":[{}],\"uses\":[{}]}}",
                    js(&e.class),
                    js(&e.description),
                    ports(&e.provides),
                    ports(&e.uses)
                )
            }
            Err(_) => format!("{{\"found\":false,\"class\":\"{}\"}}", js(class)),
        })
    }

    fn searchJson(&self, needle: &str, limit: i64) -> Result<String, SidlError> {
        let query = FuzzyQuery::new(needle).with_limit(limit.max(1) as usize);
        Ok(page_json(&self.repository.fuzzy(&query)))
    }

    /// Junk cursors error rather than silently restarting the walk from
    /// the top.
    fn pageJson(&self, needle: &str, limit: i64, cursor: &str) -> Result<String, SidlError> {
        let cursor = QueryCursor::parse(cursor)
            .ok_or_else(|| SidlError::invoke(format!("unparseable query cursor '{cursor}'")))?;
        let query = FuzzyQuery::new(needle)
            .with_limit(limit.max(1) as usize)
            .after(cursor);
        Ok(page_json(&self.repository.fuzzy(&query)))
    }

    /// Entry count, shard layout, per-shard publication generations, and
    /// the global repository counters.
    fn statsJson(&self) -> Result<String, SidlError> {
        let generations: Vec<String> = self
            .repository
            .generations()
            .iter()
            .map(u64::to_string)
            .collect();
        Ok(format!(
            "{{\"components\":{},\"shards\":{},\"generations\":[{}],\"counters\":{}}}",
            self.repository.len(),
            self.repository.shard_count(),
            generations.join(","),
            cca_obs::repo().snapshot().to_json()
        ))
    }
}

impl Framework {
    /// Installs the discovery plane: deposits the service-port SIDL into
    /// the repository (idempotently), adds an instance named
    /// [`DISCOVERY_INSTANCE`] serving a [`Discovery`] through the
    /// generated skeleton, and exports its port under
    /// [`DISCOVERY_EXPORT_KEY`] so the next
    /// [`serve_tcp`](Framework::serve_tcp) call makes the catalog
    /// remotely searchable.
    ///
    /// Returns the port object for in-process callers.
    pub fn install_discovery(self: &Arc<Self>) -> Result<Discovery, CcaError> {
        let discovery = Discovery::new(Arc::clone(self.repository()));
        self.install_service_port(SERVICE, Arc::new(DiscoveryPortSkel(discovery.clone())))?;
        Ok(discovery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::CCA_PORTS_SIDL;
    use cca_core::{CcaServices, Component};
    use cca_data::TypeMap;
    use cca_repository::{ComponentEntry, PortSpec};
    use cca_sidl::{compile, invoke_checked, DynObject, DynValue, Reflection};

    struct Nop;
    impl Component for Nop {
        fn component_type(&self) -> &str {
            "t.Nop"
        }
        fn set_services(&self, _s: Arc<CcaServices>) -> Result<(), CcaError> {
            Ok(())
        }
    }

    fn entry(class: &str, desc: &str) -> ComponentEntry {
        ComponentEntry {
            class: class.into(),
            description: desc.into(),
            provides: vec![PortSpec::new("solve", "esi.Solver")],
            uses: vec![],
            properties: TypeMap::new(),
            factory: Arc::new(|| Arc::new(Nop) as Arc<dyn Component>),
        }
    }

    fn fw_with_catalog() -> Arc<Framework> {
        let repo = Repository::new();
        repo.register_component(entry("esi.KrylovCg", "conjugate gradient solver"))
            .unwrap();
        repo.register_component(entry("esi.KrylovGmres", "restarted gmres solver"))
            .unwrap();
        repo.register_component(entry("viz.Plot", "line plots"))
            .unwrap();
        Framework::new(repo)
    }

    fn served(fw: &Arc<Framework>) -> Arc<dyn DynObject> {
        let handle = fw
            .services(DISCOVERY_INSTANCE)
            .unwrap()
            .get_provides_port("discovery")
            .unwrap();
        Arc::clone(handle.dynamic().unwrap())
    }

    #[test]
    fn install_registers_exports_and_answers() {
        let fw = fw_with_catalog();
        let disc = fw.install_discovery().unwrap();
        assert!(fw.orb().keys().contains(&DISCOVERY_EXPORT_KEY.to_string()));
        // Second install fails on the duplicate instance, not the SIDL.
        assert!(matches!(
            fw.install_discovery(),
            Err(CcaError::ComponentAlreadyExists(_))
        ));
        // The monitor shares the deposited package: no second deposit.
        fw.install_monitor().unwrap();
        let found = disc.lookupJson("esi.KrylovCg").unwrap();
        assert!(found.contains("\"found\":true"), "{found}");
        assert!(found.contains("\"esi.Solver\""), "{found}");
        let missing = disc.lookupJson("esi.Missing").unwrap();
        assert!(missing.contains("\"found\":false"), "{missing}");
        let stats = disc.statsJson().unwrap();
        assert!(stats.contains("\"components\":3"), "{stats}");
        assert!(stats.contains("\"counters\":{\"deposits\""), "{stats}");
    }

    #[test]
    fn search_and_paging_over_dynamic_invocation() {
        let fw = fw_with_catalog();
        fw.install_discovery().unwrap();
        let target = served(&fw);
        let reflection = Reflection::from_model(&compile(CCA_PORTS_SIDL).unwrap());
        let info = reflection.type_info(DISCOVERY_PORT_TYPE).unwrap();

        let r = invoke_checked(
            &*target,
            info.method("searchJson").unwrap(),
            vec![DynValue::Str("krylov".into()), DynValue::Long(1)],
        )
        .unwrap();
        let first = r.as_str().unwrap().to_string();
        assert!(first.contains("\"esi.KrylovCg\""), "{first}");
        assert!(first.contains("\"matched\":2"), "{first}");
        // Pull the cursor out and continue the walk over the wire shape.
        let cursor = first
            .split("\"cursor\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .expect("first page leaves a cursor")
            .to_string();
        let r = invoke_checked(
            &*target,
            info.method("pageJson").unwrap(),
            vec![
                DynValue::Str("krylov".into()),
                DynValue::Long(1),
                DynValue::Str(cursor),
            ],
        )
        .unwrap();
        let second = r.as_str().unwrap();
        assert!(second.contains("\"esi.KrylovGmres\""), "{second}");
        assert!(second.contains("\"cursor\":null"), "{second}");

        let r = invoke_checked(&*target, info.method("componentCount").unwrap(), vec![]).unwrap();
        assert_eq!(r.as_long().unwrap(), 3);
    }

    #[test]
    fn unknown_method_bad_args_and_junk_cursor_error() {
        let fw = fw_with_catalog();
        fw.install_discovery().unwrap();
        let target = served(&fw);
        assert!(target.invoke("selfDestruct", vec![]).is_err());
        assert!(target.invoke("lookupJson", vec![]).is_err());
        assert!(target
            .invoke("lookupJson", vec![DynValue::Long(1)])
            .is_err());
        assert!(target
            .invoke("searchJson", vec![DynValue::Str("x".into())])
            .is_err());
        assert!(target
            .invoke(
                "searchJson",
                vec![DynValue::Str("x".into()), DynValue::Str("1".into())]
            )
            .is_err());
        assert!(target
            .invoke(
                "pageJson",
                vec![
                    DynValue::Str("krylov".into()),
                    DynValue::Long(5),
                    DynValue::Str("not-a-cursor".into()),
                ],
            )
            .is_err());
    }
}
