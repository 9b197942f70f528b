#include "metadata/catalog.hpp"

#include <algorithm>

namespace esg::metadata {

using common::Errc;
using common::Error;
using common::Result;
using common::Status;
using directory::Dn;
using directory::Entry;
using directory::Scope;

std::string DatasetInfo::file_name(int chunk_index) const {
  const int m0 = start_month + chunk_index * months_per_file;
  const int m1 = std::min(m0 + months_per_file, start_month + n_months);
  return name + "." + std::to_string(m0) + "-" + std::to_string(m1) + ".ncx";
}

int DatasetInfo::chunk_count() const {
  if (months_per_file <= 0) return 0;
  return (n_months + months_per_file - 1) / months_per_file;
}

MetadataCatalog::MetadataCatalog(directory::DirectoryClient client)
    : client_(std::move(client)) {}

Dn MetadataCatalog::root_dn() {
  return Dn::from_rdns({{"mc", "cdms"}, {"o", "grid"}});
}

Dn MetadataCatalog::dataset_dn(const std::string& name) {
  return root_dn().child("ds", name);
}

void MetadataCatalog::publish_dataset(const DatasetInfo& dataset,
                                      StatusCb done) {
  Entry ds(dataset_dn(dataset.name));
  ds.add("objectclass", "dataset");
  ds.add("name", dataset.name);
  ds.add("model", dataset.model);
  ds.add("institution", dataset.institution);
  ds.add("collection", dataset.collection);
  ds.add("startmonth", dataset.start_month);
  ds.add("nmonths", dataset.n_months);
  ds.add("monthsperfile", dataset.months_per_file);
  for (const auto& v : dataset.variables) ds.add("variable", v.name);

  // Entries write sequentially; a shared countdown fires `done` once.
  const int total = 1 + static_cast<int>(dataset.variables.size()) +
                    dataset.chunk_count();
  auto remaining = std::make_shared<int>(total);
  auto failed = std::make_shared<bool>(false);
  auto cb = std::make_shared<StatusCb>(std::move(done));
  auto step = [remaining, failed, cb](Status st) {
    if (!st.ok() && !*failed) {
      *failed = true;
      (*cb)(st);
      return;
    }
    if (--*remaining == 0 && !*failed) (*cb)(common::ok_status());
  };

  client_.add(ds, /*ensure=*/true, step);
  for (const auto& v : dataset.variables) {
    Entry ve(dataset_dn(dataset.name).child("var", v.name));
    ve.add("objectclass", "variable");
    ve.add("name", v.name);
    ve.add("units", v.units);
    ve.add("longname", v.long_name);
    client_.add(ve, /*ensure=*/true, step);
  }
  for (int c = 0; c < dataset.chunk_count(); ++c) {
    const int m0 = dataset.start_month + c * dataset.months_per_file;
    const int m1 = std::min(m0 + dataset.months_per_file,
                            dataset.start_month + dataset.n_months);
    Entry fe(dataset_dn(dataset.name).child("tf", dataset.file_name(c)));
    fe.add("objectclass", "timechunk");
    fe.add("name", dataset.file_name(c));
    fe.add("startmonth", m0);
    fe.add("endmonth", m1);
    client_.add(fe, /*ensure=*/true, step);
  }
}

void MetadataCatalog::lookup_dataset(
    const std::string& name, std::function<void(Result<DatasetInfo>)> done) {
  client_.search(
      dataset_dn(name), Scope::sub, "(objectclass=*)", {},
      [name, done = std::move(done)](Result<std::vector<Entry>> r) {
        if (!r) return done(r.error());
        DatasetInfo info;
        bool found = false;
        std::vector<VariableDesc> vars;
        for (const auto& e : *r) {
          const std::string oc = e.get("objectclass");
          if (oc == "dataset") {
            found = true;
            info.name = e.get("name");
            info.model = e.get("model");
            info.institution = e.get("institution");
            info.collection = e.get("collection");
            info.start_month = static_cast<int>(e.get_int("startmonth"));
            info.n_months = static_cast<int>(e.get_int("nmonths"));
            info.months_per_file =
                static_cast<int>(e.get_int("monthsperfile"));
          } else if (oc == "variable") {
            vars.push_back(VariableDesc{e.get("name"), e.get("units"),
                                        e.get("longname")});
          }
        }
        if (!found) {
          return done(Error{Errc::not_found, "no dataset " + name});
        }
        info.variables = std::move(vars);
        done(std::move(info));
      });
}

void MetadataCatalog::list_datasets(
    std::function<void(Result<std::vector<std::string>>)> done) {
  client_.search(root_dn(), Scope::one, "(objectclass=dataset)", {},
                 [done = std::move(done)](Result<std::vector<Entry>> r) {
                   if (!r) return done(r.error());
                   std::vector<std::string> names;
                   names.reserve(r->size());
                   for (const auto& e : *r) names.push_back(e.get("name"));
                   done(std::move(names));
                 });
}

void MetadataCatalog::files_for(
    const std::string& dataset, const std::string& variable, int month_start,
    int month_end,
    std::function<void(Result<std::vector<LogicalFileRef>>)> done) {
  lookup_dataset(
      dataset, [this, dataset, variable, month_start, month_end,
                done = std::move(done)](Result<DatasetInfo> info) mutable {
        if (!info) return done(info.error());
        const bool has_var =
            std::any_of(info->variables.begin(), info->variables.end(),
                        [&](const VariableDesc& v) { return v.name == variable; });
        if (!has_var) {
          return done(Error{Errc::not_found,
                            "dataset " + dataset + " has no variable " +
                                variable});
        }
        // Chunks overlapping [month_start, month_end).
        client_.search(
            dataset_dn(dataset), Scope::one,
            "(&(objectclass=timechunk)(startmonth<=" +
                std::to_string(month_end - 1) + ")(endmonth>=" +
                std::to_string(month_start + 1) + "))",
            {},
            [collection = info->collection, done = std::move(done)](
                Result<std::vector<Entry>> r) {
              if (!r) return done(r.error());
              std::vector<LogicalFileRef> refs;
              refs.reserve(r->size());
              for (const auto& e : *r) {
                refs.push_back(LogicalFileRef{
                    collection, e.get("name"),
                    static_cast<int>(e.get_int("startmonth")),
                    static_cast<int>(e.get_int("endmonth"))});
              }
              if (refs.empty()) {
                return done(Error{Errc::not_found,
                                  "no files cover the requested months"});
              }
              std::sort(refs.begin(), refs.end(),
                        [](const LogicalFileRef& a, const LogicalFileRef& b) {
                          return a.start_month < b.start_month;
                        });
              done(std::move(refs));
            });
      });
}

}  // namespace esg::metadata
