#include "harness/sweep_spec.h"

#include <algorithm>
#include <utility>

#include "harness/config_schema.h"
#include "harness/registry.h"
#include "harness/sweep_cli.h"

namespace lion {

namespace {

/// "<leaf>=<value>": the default point-name fragment for one axis value.
std::string DefaultLabel(const std::string& path, const Json& v) {
  size_t dot = path.rfind('.');
  std::string leaf = dot == std::string::npos ? path : path.substr(dot + 1);
  // Strings drop their quotes in labels ("protocol=Lion", not
  // "protocol=\"Lion\""); other scalars use their JSON form.
  return leaf + "=" + (v.is_string() ? v.str() : v.Dump());
}

Status ParseAxis(const Json& v, size_t index, SweepAxis* out) {
  std::string where = "axes[" + std::to_string(index) + "]";
  if (!v.is_object())
    return Status::InvalidArgument(where + ": expected object, got " +
                                   JsonTypeName(v.type()));
  for (const Json::Member& m : v.members()) {
    if (m.first == "path") {
      if (!m.second.is_string())
        return Status::InvalidArgument(where + ".path: expected string");
      out->path = m.second.str();
    } else if (m.first == "values") {
      if (!m.second.is_array())
        return Status::InvalidArgument(where + ".values: expected array");
      out->values = m.second.items();
    } else if (m.first == "labels") {
      if (!m.second.is_array())
        return Status::InvalidArgument(where + ".labels: expected array");
      for (const Json& l : m.second.items()) {
        if (!l.is_string())
          return Status::InvalidArgument(where +
                                         ".labels: expected strings");
        out->labels.push_back(l.str());
      }
    } else {
      return Status::InvalidArgument(where + "." + m.first +
                                     ": unknown axis key (path, values, "
                                     "labels)");
    }
  }
  if (out->path.empty())
    return Status::InvalidArgument(where + ": \"path\" is required");
  if (out->values.empty())
    return Status::InvalidArgument(where + ": \"values\" must be non-empty");
  if (!out->labels.empty() && out->labels.size() != out->values.size())
    return Status::InvalidArgument(
        where + ": " + std::to_string(out->labels.size()) + " labels for " +
        std::to_string(out->values.size()) + " values");
  if (out->labels.empty()) {
    for (const Json& value : out->values)
      out->labels.push_back(DefaultLabel(out->path, value));
  }
  return Status::OK();
}

}  // namespace

Status SweepSpec::FromJson(const Json& v, SweepSpec* out) {
  *out = SweepSpec{};
  if (!v.is_object())
    return Status::InvalidArgument(std::string("sweep spec: expected object, "
                                               "got ") +
                                   JsonTypeName(v.type()));
  for (const Json::Member& m : v.members()) {
    if (m.first == "name") {
      if (!m.second.is_string())
        return Status::InvalidArgument("name: expected string");
      out->name = m.second.str();
    } else if (m.first == "base") {
      Status s = ExperimentConfigSchema().ParseAt(m.second, &out->base,
                                                  "base");
      if (!s.ok()) return s;
    } else if (m.first == "axes") {
      if (!m.second.is_array())
        return Status::InvalidArgument("axes: expected array");
      for (size_t i = 0; i < m.second.items().size(); ++i) {
        SweepAxis axis;
        Status s = ParseAxis(m.second.items()[i], i, &axis);
        if (!s.ok()) return s;
        out->axes.push_back(std::move(axis));
      }
    } else if (m.first == "reports") {
      if (!m.second.is_array())
        return Status::InvalidArgument("reports: expected array");
      for (const Json& r : m.second.items()) {
        if (!r.is_string())
          return Status::InvalidArgument("reports: expected strings");
        const std::vector<std::string>& known = SweepReportNames();
        if (std::find(known.begin(), known.end(), r.str()) == known.end())
          return Status::InvalidArgument("reports: unknown report \"" +
                                         r.str() + "\" (known: " +
                                         JoinRegistryNames(known) + ")");
        out->reports.push_back(r.str());
      }
    } else {
      return Status::InvalidArgument(m.first +
                                     ": unknown sweep spec key (name, base, "
                                     "axes, reports)");
    }
  }
  if (out->name.empty())
    return Status::InvalidArgument("sweep spec: \"name\" is required");
  return Status::OK();
}

size_t SweepSpec::num_points() const {
  size_t n = 1;
  for (const SweepAxis& axis : axes) n *= axis.values.size();
  return n;
}

Status SweepSpec::Expand(std::vector<SweepPoint>* out) const {
  // Odometer over the axes, first axis outermost — the declaration order of
  // a nested C++ sweep loop.
  std::vector<size_t> index(axes.size(), 0);
  const size_t total = num_points();
  for (size_t point = 0; point < total; ++point) {
    SweepPoint sp;
    sp.name = name;
    sp.config = base;
    sp.reports = reports;
    for (size_t a = 0; a < axes.size(); ++a) {
      const SweepAxis& axis = axes[a];
      const Json& value = axis.values[index[a]];
      Status s = ExperimentConfigSchema().SetJsonByPath(&sp.config, axis.path,
                                                        value);
      if (!s.ok())
        return Status::InvalidArgument("axes[" + std::to_string(a) + "] (" +
                                       axis.path + "): " + s.message());
      sp.name += "/" + axis.labels[index[a]];
    }
    out->push_back(std::move(sp));
    for (size_t a = axes.size(); a-- > 0;) {
      if (++index[a] < axes[a].values.size()) break;
      index[a] = 0;
    }
  }
  return Status::OK();
}

Status ExpandSweepDocument(const Json& doc, std::vector<SweepPoint>* out) {
  std::vector<const Json*> specs;
  if (doc.is_array()) {
    for (const Json& v : doc.items()) specs.push_back(&v);
  } else {
    specs.push_back(&doc);
  }
  if (specs.empty())
    return Status::InvalidArgument("sweep document: empty spec array");
  for (const Json* v : specs) {
    SweepSpec spec;
    Status s = SweepSpec::FromJson(*v, &spec);
    if (!s.ok()) return s;
    s = spec.Expand(out);
    if (!s.ok())
      return Status::InvalidArgument("sweep \"" + spec.name +
                                     "\": " + s.message());
  }
  return Status::OK();
}

Status LoadSweepFile(const std::string& path, std::vector<SweepPoint>* out) {
  Json doc;
  Status s = Json::ParseFile(path, &doc);
  if (!s.ok()) return s;
  return ExpandSweepDocument(doc, out);
}

}  // namespace lion
