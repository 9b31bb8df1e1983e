#include "agent/migrator.hpp"

#include "util/log.hpp"

namespace naplet::agent {

util::Status depart(LocationService& locations, ConnectionMigrator& source,
                    const AgentId& id, const Ship& ship) {
  locations.begin_migration(id);
  // A failed prepare has already put every connection back in service.
  if (util::Status prepared = source.prepare_migration(id); !prepared.ok()) {
    locations.end_migration(id);
    return prepared;
  }
  const util::Bytes blob = source.export_sessions(id);
  util::Status shipped = ship(blob);
  if (shipped.ok()) return shipped;

  // export_sessions removed (and invalidated) the originals: rebuild them
  // from the blob, settle the location back here and resume them.
  if (auto st = source.import_sessions(id, blob); !st.ok()) {
    NAPLET_LOG(kError, "migrator") << "session rollback failed for "
                                   << id.name() << ": " << st.to_string();
  }
  locations.end_migration(id);
  (void)source.complete_migration(id);
  return shipped;
}

util::Status land(LocationService& locations, ConnectionMigrator& destination,
                  const AgentId& id, util::ByteSpan sessions,
                  const NodeInfo& node) {
  if (auto st = destination.import_sessions(id, sessions); !st.ok()) {
    // Drop what part of the import got in: the source rebuilds it all.
    (void)destination.export_sessions(id);
    return st;
  }
  locations.register_agent(id, node);
  return util::OkStatus();
}

}  // namespace naplet::agent
