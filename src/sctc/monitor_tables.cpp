#include "sctc/monitor_tables.hpp"

#include <stdexcept>

namespace esv::sctc {

MonitorTables::MonitorTables(const std::vector<std::string>& proposition_names,
                             const std::vector<PropertySource>& properties) {
  for (const std::string& name : proposition_names) factory_.prop(name);
  for (const PropertySource& source : properties) {
    Property property;
    property.text = source.text;
    property.dialect = source.dialect;
    property.initial = temporal::compile_or_fallback(
        factory_,
        temporal::parse_property(source.text, source.dialect, factory_),
        tables_, property.automaton_states);
    properties_.push_back(std::move(property));
  }
}

const MonitorTables::Property& MonitorTables::match(
    std::size_t index, const std::string& text, temporal::Dialect dialect,
    const temporal::FormulaFactory& factory,
    const std::vector<int>& prop_indices) const {
  if (index >= properties_.size() || properties_[index].text != text ||
      properties_[index].dialect != dialect) {
    throw std::logic_error("monitor tables: property " +
                           std::to_string(index) + " \"" + text +
                           "\" is not the tables' property " +
                           std::to_string(index));
  }
  for (int prop_index : prop_indices) {
    if (prop_index >= factory_.prop_count() ||
        factory_.prop_name(prop_index) != factory.prop_name(prop_index)) {
      throw std::logic_error("monitor tables: proposition \"" +
                             factory.prop_name(prop_index) +
                             "\" was registered in a different order");
    }
  }
  return properties_[index];
}

}  // namespace esv::sctc
